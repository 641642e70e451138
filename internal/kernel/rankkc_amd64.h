// The rank-kc loops shared by the avx2 and avx512 kernels (avx2_amd64.s,
// avx512_amd64.s). Each file supplies the bodies these macros are called
// with — its one- and four-step trips — and, for RANK_KC_PREFETCH_C, its own
// PREFETCH_C_TERM for its tile-row width; the loop structure and the
// prefetch schedule are the same for both, as fusedSegTrips (avx2_amd64.go)
// is.
//
// Register contract: kc in CX (≥ 1), Ã panel in SI, B̃ panel in BX; the
// trips advance SI and BX themselves. The order of the FMAs into any one
// accumulator is p ascending whatever the unrolling or the segmenting.

// The kc%4 tail of a rank-kc loop: k-steps left in AX.
#define RANK_KC_TAIL(trip1, loop1, done) \
	TESTQ AX, AX; \
	JZ   done;    \
loop1:            \
	trip1;        \
	DECQ AX;      \
	JNZ  loop1;   \
done:

// The rank-kc loop: four k-steps per trip, then the kc%4 tail. Clobbers AX.
#define RANK_KC(trip4, trip1, loop4, tail, loop1, done) \
	MOVQ CX, AX;  \
	SHRQ $2, CX;  \
	ANDQ $3, AX;  \
	TESTQ CX, CX; \
	JZ   tail;    \
loop4:            \
	trip4;        \
	DECQ CX;      \
	JNZ  loop4;   \
tail:             \
	RANK_KC_TAIL(trip1, loop1, done)

// The fused kernels' rank-kc loop, with the C-term tiles prefetched under it:
// tileRef list in R8, its length n in R9 (≥ 1), the segment length in R12
// (fusedSegTrips: ⌊(kc/4)/n⌋ four-step trips, at most 24). The kc/4 trips run
// as n segments — n−1 of R12 trips, then one of whatever is left, then the
// kc%4 tail — and segment t is preceded by PREFETCH_C_TERM for term t's tile
// and nothing else: at most six C rows are requested at once, and the last
// term still has at least 1/n of the loop to arrive before the update reads
// it. The cap of 24 trips (96 k-steps, about a memory latency) is there for
// that last term: where bursts do not stall, a second term requested at the
// midpoint of a 256-step loop arrived late and cost 3–6 % of the call over
// the burst, while 96 steps in costs what the burst did; where bursts do
// stall, terms 64 steps apart or more measured alike and closer was worse.
// n = 1 is one prefetch and one segment: six rows, then the whole loop, no
// branch added to a trip (and seg = 0 would be the all-terms-up-front burst).
// PREFETCH_C_TERM reads the tileRef at R10 and moves R10 to the next one; it
// may clobber DI and DX. Clobbers AX, DX, DI, R10, R11, R13.
#define RANK_KC_PREFETCH_C(trip4, trip1, seg, loop4, next, loop1, done) \
	MOVQ CX, AX;     \
	SHRQ $2, CX;     \
	ANDQ $3, AX;     \
	MOVQ R8, R10;    \
	MOVQ R9, R11;    \
seg:                 \
	PREFETCH_C_TERM; \
	MOVQ R12, R13;   \
	DECQ R11;        \
	CMOVQEQ CX, R13; \
	SUBQ R13, CX;    \
	TESTQ R13, R13;  \
	JZ   next;       \
loop4:               \
	trip4;           \
	DECQ R13;        \
	JNZ  loop4;      \
next:                \
	TESTQ R11, R11;  \
	JNZ  seg;        \
	RANK_KC_TAIL(trip1, loop1, done)
