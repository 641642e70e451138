package fmmfam_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fmmfam"
	"fmmfam/serve"
)

// TestHostileEnvironmentChangesNothing: a Config is the whole input. With
// every variable the library used to mirror a field from set to a value that
// once overrode or failed it, Validate, NewMultiplier, NewPlan and serve.New
// still succeed, and the plan selected, Stats, the serve knobs and the result
// bits are those of the clean environment.
func TestHostileEnvironmentChangesNothing(t *testing.T) {
	hostile := map[string]string{
		"FMMFAM_TRAVERSAL":        "sideways",
		"FMMFAM_AUTOTUNE":         "banana",
		"FMMFAM_CALIBRATE":        "1",
		"FMMFAM_SERVE_ADDR":       "127.0.0.1:1",
		"FMMFAM_COALESCE_WINDOW":  "fast",
		"FMMFAM_COALESCE_MAXJOBS": "many",
		"FMMFAM_ADMISSION_DEPTH":  "-2",
	}
	cfg := fmmfam.Config{MC: 32, KC: 32, NC: 64, Threads: 4, Traversal: fmmfam.TraversalBFS, AdmissionDepth: 5, Kernel: "go4x4"} // 256³ selects an FMM plan on go4x4
	rng := rand.New(rand.NewSource(20))
	a, b := fmmfam.NewMatrix(256, 256), fmmfam.NewMatrix(256, 256)
	a.FillRand(rng)
	b.FillRand(rng)

	// observe builds everything from cfg and reports all the environment
	// could have moved.
	observe := func() string {
		params, errServe := cfg.ServeParams()
		mu := fmmfam.NewMultiplier(cfg, fmmfam.PaperArch())
		sel, errSel := mu.PlanFor(256, 256, 256)
		c, cd := fmmfam.NewMatrix(256, 256), fmmfam.NewMatrix(256, 256)
		errMul := mu.MulAdd(c, a, b)
		direct, errPlan := fmmfam.NewPlan(cfg, fmmfam.ABC, fmmfam.Strassen())
		srv, errSrv := serve.New(cfg, fmmfam.PaperArch())
		if err := errors.Join(cfg.Validate(), errServe, errSel, errMul, errPlan, errSrv); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		direct.MulAdd(cd, a, b)
		return fmt.Sprintf("%+v %s | %v fanout %d %+v %x | fanout %d %x",
			params, srv.Addr(), sel, sel.Fanout(), mu.Stats(), c.Fingerprint(), direct.Fanout(), cd.Fingerprint())
	}

	for name := range hostile {
		t.Setenv(name, "")
	}
	clean := observe()
	for name, v := range hostile {
		t.Setenv(name, v)
	}
	if got := observe(); got != clean {
		t.Fatalf("hostile environment changed serving:\n got  %s\n want %s", got, clean)
	}
}
