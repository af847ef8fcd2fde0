// Package baseline resolves which benchmark comparison lane a bench run
// captures. Every two-pass benchmark in the repo (reference pass, then
// the current implementation) selects its reference pass through one
// convention:
//
//	BENCH_BASELINE=<lane>
//
// where <lane> names the subsystem: "data" (deep-copy gather) or
// "ingest" (serial single-chunk parse).
//
// The package is a leaf (it imports only os) so bench files anywhere —
// including internal/data, which internal/bench itself imports — can
// use it without import cycles.
package baseline

import "os"

// Lane reports whether the current run should capture the named lane's
// baseline, i.e. whether BENCH_BASELINE equals lane.
func Lane(lane string) bool {
	return os.Getenv("BENCH_BASELINE") == lane
}
