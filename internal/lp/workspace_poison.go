//go:build lp_poison

package lp

// Building with -tags lp_poison turns workspace poisoning on for every
// package's tests, not just lp's own (which switch it on in TestMain):
//
//	go test -tags lp_poison ./internal/online/... ./internal/milp/...
func init() { releaseHook = (*workspace).poison }
