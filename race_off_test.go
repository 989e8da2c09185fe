//go:build !race

package maqs_test

const raceDetector = false
