// The benchmark is a module of its own so the repo's `go build ./...` and
// `go test ./...` do not see it. Its import path sits under `smartarrays`,
// which is what lets it call the repo's internal packages directly.
module smartarrays/benchmark

go 1.22

require smartarrays v0.0.0

replace smartarrays => ../
