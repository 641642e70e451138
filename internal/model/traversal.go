package model

import (
	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
)

// TraversalPlan returns nil: every plan runs its terms in order. It is kept
// for fmmbench until ROADMAP 1(a-ii) removes its caller.
func TraversalPlan(arch Arch, v fmmexec.Variant, m, k, n int, levels []core.Algorithm, workers int) []fmmexec.Step {
	return nil
}
