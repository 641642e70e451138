// Package hotpathalloc is the fixture for the hotpathalloc analyzer:
// //fmm:hotpath-annotated functions containing each forbidden construct,
// //fmm:alloc-ok suppressions, and unannotated/clean counterparts.
package hotpathalloc

import "fmt"

type Mat struct {
	Rows, Cols int
	Data       []float64
}

func sink(x any) { _ = x }

// --- violations ---

//fmm:hotpath
func badMake(n int) []float64 {
	buf := make([]float64, n) // want `hot path badMake: make allocates`
	return buf
}

//fmm:hotpath
func badNew() *Mat {
	return new(Mat) // want `hot path badNew: new allocates`
}

//fmm:hotpath
func badAppend(dst []int, v int) []int {
	return append(dst, v) // want `hot path badAppend: append may grow its backing array`
}

//fmm:hotpath
func badSliceLit() []int {
	return []int{1, 2, 3} // want `hot path badSliceLit: slice literal allocates`
}

//fmm:hotpath
func badMapLit() map[string]int {
	return map[string]int{"a": 1} // want `hot path badMapLit: map literal allocates`
}

//fmm:hotpath
func badAddrOfComposite() *Mat {
	return &Mat{Rows: 1, Cols: 1} // want `hot path badAddrOfComposite: address of composite literal allocates`
}

//fmm:hotpath
func badClosure() func() int {
	n := 0
	return func() int { n++; return n } // want `hot path badClosure: function literal`
}

//fmm:hotpath
func badGo(f func()) {
	go f() // want `hot path badGo: go statement allocates a goroutine`
}

//fmm:hotpath
func badFmt(x int) {
	fmt.Println(x) // want `hot path badFmt: fmt\.Println allocates`
}

//fmm:hotpath
func badBoxing(v int) {
	sink(v) // want `hot path badBoxing: argument boxed into interface parameter`
}

//fmm:hotpath
func badIfaceConv(v int) any {
	return any(v) // want `hot path badIfaceConv: conversion to interface any allocates`
}

//fmm:hotpath
func badConcat(a, b string) string {
	return a + b // want `hot path badConcat: string concatenation allocates`
}

//fmm:hotpath
func badBytesToString(b []byte) string {
	return string(b) // want `hot path badBytesToString: byte/rune-slice to string conversion allocates`
}

// --- compliant ---

// okNotAnnotated allocates freely: no directive, no diagnostics.
func okNotAnnotated(n int) []float64 {
	return make([]float64, n)
}

//fmm:hotpath
func okCleanLoop(dst, src []float64, alpha float64) {
	for i := range src {
		dst[i] += alpha * src[i]
	}
}

//fmm:hotpath
func okStructValueAndArray(m *Mat) float64 {
	var acc [16]float64
	t := Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
	for i := range acc {
		acc[i] = float64(t.Rows)
	}
	return acc[0]
}

//fmm:hotpath
func okAmortizedAppend(dst []float64, v float64) []float64 {
	dst = append(dst, v) //fmm:alloc-ok amortized growth into a reused pooled buffer
	return dst
}

//fmm:hotpath
func okInterfaceToInterface(x any) {
	sink(x) // interface-to-interface: no boxing
}

// --- assembly-wrapper shape ---
// A SIMD backend's Go wrapper reslices for bounds proofs and hands raw
// element pointers to a bodyless assembly routine (the avx2 backend's Micro
// wrappers are this shape). The wrapper rides the micro-kernel hot path, so
// it must stay allocation-free: reslicing, indexing, and taking element
// addresses are all fine; materializing a temporary tile is not.

func microAsm(kc int, ap, bp, acc *float64) // implemented in assembly

//fmm:hotpath
func okAsmWrapper(kc int, ap, bp, acc []float64) {
	acc = acc[:48:48]
	if kc <= 0 {
		for i := range acc {
			acc[i] = 0
		}
		return
	}
	ap = ap[: kc*8 : kc*8]
	bp = bp[: kc*6 : kc*6]
	microAsm(kc, &ap[0], &bp[0], &acc[0])
}

//fmm:hotpath
func badAsmWrapperTemp(kc int, ap, bp []float64) float64 {
	acc := make([]float64, 48) // want `hot path badAsmWrapperTemp: make allocates`
	microAsm(kc, &ap[0], &bp[0], &acc[0])
	return acc[0]
}

// --- descriptors handed to assembly ---
// A fused kernel's wrapper describes its operands to the assembly in a small
// array on its own frame. That stays on the stack only if the stub is marked
// //go:noescape; without the annotation the compiler must assume the callee
// keeps the pointer, and the array is heap-allocated once per tile.

type tileRef struct {
	p      *float64
	stride uintptr
}

func fusedAsmEscaping(kc int, refs *tileRef, n int) // assembly, not annotated

//go:noescape
func fusedAsmNoEscape(kc int, refs *tileRef, n int) // assembly

func fusedGo(kc int, refs *tileRef, n int) { _, _, _ = kc, refs, n }

//fmm:hotpath
func badLocalToEscapingStub(kc int, c []float64) {
	var refs [4]tileRef
	refs[0] = tileRef{p: &c[0], stride: 8}
	fusedAsmEscaping(kc, &refs[0], 1) // want `hot path badLocalToEscapingStub: address of local refs passed to body-less fusedAsmEscaping, which lacks //go:noescape`
	var one tileRef
	fusedAsmEscaping(kc, &one, 1)       // want `hot path badLocalToEscapingStub: address of local one passed to body-less fusedAsmEscaping`
	fusedAsmEscaping(kc, (&refs[1]), 1) // want `hot path badLocalToEscapingStub: address of local refs passed`
}

//fmm:hotpath
func okLocalToNoEscapeStub(kc int, c []float64, heap []tileRef, ref *tileRef) {
	var refs [4]tileRef
	refs[0] = tileRef{p: &c[0], stride: 8}
	fusedAsmNoEscape(kc, &refs[0], 1) // annotated stub: refs stays on the stack
	fusedGo(kc, &refs[0], 1)          // has a body: escape analysis sees through it
	fusedAsmEscaping(kc, &heap[0], 1) // slice element: not this frame's storage
	fusedAsmEscaping(kc, ref, 1)      // a pointer passed on, no local addressed
}
