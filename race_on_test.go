//go:build race

package fmmfam

// raceEnabled reports a -race build. There every sync/atomic operation
// first loads its word (the race runtime's early nil check), so
// kernel.TouchPages maps a fresh page's zero page before its add writes the
// page, and the page faults twice, as it would untouched.
const raceEnabled = true
