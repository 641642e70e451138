// Package rentrelease is the fixture for the rentrelease analyzer: mock
// pool types whose rent/release method names match the real engine's specs,
// plus violating and compliant renting functions.
package rentrelease

import "errors"

var errBoom = errors.New("boom")

type Workspace struct{ buf []float64 }

type workspacePool struct{ ch chan *Workspace }

func (p *workspacePool) get() *Workspace {
	select {
	case ws := <-p.ch:
		return ws
	default:
		return &Workspace{buf: make([]float64, 64)}
	}
}

func (p *workspacePool) put(ws *Workspace) {
	select {
	case p.ch <- ws:
	default:
	}
}

type Mat struct {
	Rows, Cols int
	Data       []float64
}

type Context struct {
	pool    *workspacePool
	scratch chan []float64
}

// The wrapper transfers ownership to its caller: returning the rented value
// must not be reported.
func (c *Context) GetWorkspace() *Workspace   { return c.pool.get() }
func (c *Context) PutWorkspace(ws *Workspace) { c.pool.put(ws) }

func (c *Context) RentMat(rows, cols int) Mat {
	var buf []float64
	select {
	case buf = <-c.scratch:
	default:
		buf = make([]float64, rows*cols)
	}
	return Mat{Rows: rows, Cols: cols, Data: buf}
}

func (c *Context) ReturnMat(m Mat) {
	select {
	case c.scratch <- m.Data:
	default:
	}
}

// --- violations ---

func leakSimple(ctx *Context) {
	ws := ctx.GetWorkspace() // want `ws rented via Context\.GetWorkspace is not released with PutWorkspace on every path`
	ws.buf[0] = 1
}

func leakOnErrorPath(ctx *Context, fail bool) error {
	ws := ctx.GetWorkspace() // want `ws rented via Context\.GetWorkspace is not released with PutWorkspace on every path`
	ws.buf[0] = 1
	if fail {
		return errBoom // leaks ws
	}
	ctx.PutWorkspace(ws)
	return nil
}

func leakOnLoopBreak(ctx *Context, n int) {
	for i := 0; i < n; i++ {
		m := ctx.RentMat(2, 2) // want `m rented via Context\.RentMat is not released with ReturnMat on every path`
		m.Data[0] = float64(i)
		if i == 3 {
			break // leaks m
		}
		ctx.ReturnMat(m)
	}
}

func leakMatOneArm(ctx *Context, which bool) {
	m := ctx.RentMat(4, 4) // want `m rented via Context\.RentMat is not released with ReturnMat on every path`
	switch {
	case which:
		ctx.ReturnMat(m)
	default:
		m.Data[0] = 1 // this arm forgets the release
	}
}

// --- compliant ---

func okDeferred(ctx *Context) {
	ws := ctx.GetWorkspace()
	defer ctx.PutWorkspace(ws)
	ws.buf[0] = 1
}

func okReleasedOnBothPaths(ctx *Context, fail bool) error {
	ws := ctx.GetWorkspace()
	ws.buf[0] = 1
	if fail {
		ctx.PutWorkspace(ws)
		return errBoom
	}
	ctx.PutWorkspace(ws)
	return nil
}

func okPoolDirect(pool *workspacePool) {
	ws := pool.get()
	defer pool.put(ws)
	ws.buf[0] = 1
}

// Ownership transfers out of the function: the caller inherits the release
// obligation, so nothing is reported here.
func okOwnershipReturned(ctx *Context) *Workspace {
	ws := ctx.GetWorkspace()
	ws.buf[0] = 1
	return ws
}

// Renting into a slice transfers ownership to the container (released by a
// later loop); the analyzer accepts this without chasing it.
func okRentIntoSlice(ctx *Context, n int) {
	bufs := make([]Mat, n)
	for i := range bufs {
		bufs[i] = ctx.RentMat(4, 4)
	}
	for _, b := range bufs {
		ctx.ReturnMat(b)
	}
}

// Jobs that rent inside a function literal are analyzed as their own
// bodies: rent and deferred release balance inside the closure.
func okRentInsideClosure(ctx *Context, run func(func())) {
	run(func() {
		ws := ctx.GetWorkspace()
		defer ctx.PutWorkspace(ws)
		ws.buf[0] = 1
	})
}

func okMatStraightLine(ctx *Context) {
	m := ctx.RentMat(2, 2)
	m.Data[0] = 1
	ctx.ReturnMat(m)
}
