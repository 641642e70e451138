package serve

import (
	"math"
	"sync/atomic"

	"fmmfam/internal/matrix"
)

// countingLender counts a lane's rents and returns on their way to the
// multiplier.
type countingLender[E matrix.Element] struct {
	matLender[E]
	rents, returns *atomic.Int64
}

func (c countingLender[E]) RentMat(rows, cols int) matrix.Mat[E] {
	c.rents.Add(1)
	return c.matLender.RentMat(rows, cols)
}

func (c countingLender[E]) ReturnMat(m matrix.Mat[E]) {
	c.returns.Add(1)
	c.matLender.ReturnMat(m)
}

// CountMats puts a counter between both of s's lanes and their multipliers
// and returns its reader: how many matrices the data path has rented and how
// many it has returned. Call it before s sees traffic.
func CountMats(s *Server) func() (rents, returns int64) {
	var rents, returns atomic.Int64
	s.l64.mats = countingLender[float64]{s.l64.mats, &rents, &returns}
	s.l32.mats = countingLender[float32]{s.l32.mats, &rents, &returns}
	return func() (int64, int64) { return rents.Load(), returns.Load() }
}

// PoisonScratch leaves perClass NaN-filled buffers of every size class up to
// maxElems elements on both engines' scratch lists, through the same
// rent/return pair the data path uses, so the next rents hand out NaNs
// wherever a handler relies on a rented matrix's contents.
func PoisonScratch(s *Server, maxElems, perClass int) {
	poison(s.l64.mats, maxElems, perClass)
	poison(s.l32.mats, maxElems, perClass)
}

func poison[E matrix.Element](mats matLender[E], maxElems, perClass int) {
	for n := 64; n <= maxElems; n *= 2 {
		held := make([]matrix.Mat[E], perClass)
		for i := range held {
			held[i] = mats.RentMat(1, n)
			held[i].Fill(E(math.NaN()))
		}
		for _, m := range held {
			mats.ReturnMat(m)
		}
	}
}
