package kernel

import (
	"syscall"
	"testing"
	"unsafe"

	"fmmfam/internal/matrix"
)

// resident reports, per page of mem (a page-aligned mapping), whether the
// page is in memory (mincore(2)).
func resident(t *testing.T, mem []byte) []bool {
	t.Helper()
	vec := make([]byte, (len(mem)+pageSize-1)/pageSize)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&mem[0])), uintptr(len(mem)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	in := make([]bool, len(vec))
	for i, v := range vec {
		in[i] = v&1 != 0
	}
	return in
}

// checkTouchPagesFaultsRowsOnly maps fresh anonymous memory, lays a strided
// view over it whose rows start mid-page and whose gaps hold whole pages,
// touches it, and requires exactly the pages its rows cover to be resident.
func checkTouchPagesFaultsRowsOnly[E matrix.Element](t *testing.T) {
	const rows = 24
	sz := int(unsafe.Sizeof(E(0)))
	cols := (2*pageSize + pageSize/2) / sz // a row spans parts of three pages
	stride := 5 * pageSize / sz            // then two and a half pages of gap
	start := pageSize/4/sz + 3             // the view starts a quarter page in
	mem, err := syscall.Mmap(-1, 0, (rows+1)*5*pageSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("anonymous mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	// Base pages only: a transparent huge page would make gap pages resident.
	if err := syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Skipf("madvise(MADV_NOHUGEPAGE): %v", err)
	}
	data := unsafe.Slice((*E)(unsafe.Pointer(&mem[0])), len(mem)/sz)
	v := matrix.Mat[E]{Rows: rows, Cols: cols, Stride: stride, Data: data[start:]}
	TouchPages(v)
	want := make([]bool, len(mem)/pageSize)
	for i := 0; i < rows; i++ {
		lo := (start + i*stride) * sz
		for p := lo / pageSize; p*pageSize < lo+cols*sz; p++ {
			want[p] = true
		}
	}
	got := resident(t, mem)
	for p := range want {
		if got[p] != want[p] {
			t.Errorf("page %d: resident %v, want %v", p, got[p], want[p])
		}
	}
	// A view without gaps is one range: every page it covers.
	tight := matrix.Mat[E]{Rows: rows, Cols: cols, Stride: cols, Data: data[start:]}
	TouchPages(tight)
	got = resident(t, mem)
	for p := start * sz / pageSize; p*pageSize < (start+rows*cols)*sz; p++ {
		if !got[p] {
			t.Errorf("page %d of a tight view: not resident after the touch", p)
		}
	}
}

// TestTouchPagesFaultsRowsOnly: the touch reaches every page a strided
// view's rows cover and no page of its gaps, which belong to other tiles; a
// view without gaps gets every page.
func TestTouchPagesFaultsRowsOnly(t *testing.T) {
	t.Run("float64", checkTouchPagesFaultsRowsOnly[float64])
	t.Run("float32", checkTouchPagesFaultsRowsOnly[float32])
}
