//go:build race

package aggsvc

// raceEnabled lets the allocs/op assertions skip under the race detector:
// race-mode sync.Pool deliberately drops items to expose lifecycle races,
// so pooled paths allocate by design there. The zero-alloc contract is
// asserted by the race-free `go test ./...` runs instead.
const raceEnabled = true
