//go:build !race

package mapper_test

const raceEnabled = false
