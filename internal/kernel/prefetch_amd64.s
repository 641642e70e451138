//go:build amd64 && !purego

#include "textflag.h"

// func prefetchLines(p unsafe.Pointer, n uintptr)
//
// PREFETCHT0 on every 64-byte line [p, p+n) touches, from the line p lies
// in. A prefetch never faults, so the rounded-down start needs no check.
TEXT ·prefetchLines(SB), NOSPLIT, $0-16
	MOVQ  p+0(FP), SI
	MOVQ  n+8(FP), CX
	TESTQ CX, CX
	JZ    done
	LEAQ  (SI)(CX*1), DX
	ANDQ  $-64, SI

loop:
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	CMPQ       SI, DX
	JB         loop

done:
	RET
