//go:build race

// Package race reports whether the binary was built with the race
// detector. Allocation-budget tests skip under -race: the detector makes
// sync.Pool drop items on purpose, so pooled paths allocate there by design.
package race

// Enabled is true when the race detector is compiled in.
const Enabled = true
