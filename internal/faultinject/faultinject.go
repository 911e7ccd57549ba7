// Package faultinject provides chaos-testing hooks for the guarded solve
// path: poisoning a solution value, corrupting a sync-free in-degree,
// panicking inside a chosen block, or delaying a chosen worker. The hooks
// are compiled in only under the "faultinject" build tag; in normal builds
// Enabled is a false constant and every call site is guarded by
//
//	if faultinject.Enabled { ... }
//
// so the compiler removes the hook calls entirely — the production hot
// paths carry zero overhead.
//
// Sites used by the library:
//
//	"tri-block"    — PanicAt before solving triangular block k (the one
//	                 plan executor behind every solve entry point)
//	"sync-free"    — Delay at single-RHS sync-free worker start;
//	                 CorruptInDegree when re-arming dependency counters
//	"solution"     — Poison applied to the permuted solution vector
//	"daemon-solve" — Slow before every daemon batch solve, throttling the
//	                 service so its admission queue fills and overload
//	                 shedding can be exercised
//	"plan-cache"   — CorruptBytes applied to every plan-cache entry read
//	                 from disk, so the checksum layer's typed-miss +
//	                 re-analysis degradation can be exercised
//
// The chaos suite (go test -tags faultinject ./internal/faultinject) arms
// each hook and asserts the matching degradation path fires.
package faultinject
