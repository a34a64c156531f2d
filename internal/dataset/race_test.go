//go:build race

package dataset

func init() { raceEnabled = true }
