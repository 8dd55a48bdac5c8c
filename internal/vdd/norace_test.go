//go:build !race

package vdd

const raceEnabled = false
