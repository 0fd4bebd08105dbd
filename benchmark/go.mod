// The benchmark is a module of its own so that it builds with its own
// build file and stays out of the repository's `go build ./...` and
// `go test ./...`; the import path under "endbox/" lets it reach the
// internal packages whose public functions the replay rows time.
module endbox/benchmark

go 1.24

require endbox v0.0.0

replace endbox => ../
