package codegen_test

import (
	"fmt"
	"log"
	"strings"

	"fmmfam/internal/codegen"
	"fmmfam/internal/core"
	"fmmfam/internal/fmmexec"
)

// ExampleGenerate emits the unrolled Go source of one-level Strassen in the
// ABC variant and prints its functions and the comment over each of its
// seven fused calls, which spells out the linear combinations the call
// computes (the paper's computations (2)). TestGeneratedCodeCompilesAndRuns
// builds and runs such a file; `fmmtool gen -levels "2,2,2;3,3,3" -variant
// ABC -o file.go` writes one from the command line.
func ExampleGenerate() {
	src, err := codegen.Generate(codegen.Spec{
		Package:  "strassen",
		FuncName: "MulAdd",
		Levels:   []core.Algorithm{core.Strassen()},
		Variant:  fmmexec.ABC,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "func ") || strings.HasPrefix(line, "// M") {
			fmt.Println(line)
		}
	}
	// Output:
	// func Predict(arch model.Arch, m, k, n int) model.Breakdown {
	// // MulAdd computes c += a·b with the unrolled ABC implementation.
	// func MulAdd(ctx *gemm.Context[float64], c, a, b matrix.Mat[float64]) {
	// // M0 = (A0 + A3) · (B0 + B3); C0 += M; C3 += M
	// // M1 = (A2 + A3) · (B0); C2 += M; C3 -= M
	// // M2 = (A0) · (B1 - B3); C1 += M; C3 += M
	// // M3 = (A3) · (-1·B0 + B2); C0 += M; C2 += M
	// // M4 = (A0 + A1) · (B3); C0 -= M; C1 += M
	// // M5 = (-1·A0 + A2) · (B0 + B1); C3 += M
	// // M6 = (A1 - A3) · (B2 + B3); C0 += M
}
