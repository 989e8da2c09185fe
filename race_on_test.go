//go:build race

package maqs_test

// raceDetector reports that the tests run under -race. The detector makes
// sync.Pool drop a quarter of what is put into it, so pooled paths allocate
// at random and allocation counts are not comparable (the plain echo
// measures 24-25 instead of 18); the alloc gates skip themselves and run
// from `make alloc-gates` without it.
const raceDetector = true
