package exper

import (
	"testing"
)

func TestMultiSeedParallelMatchesSerial(t *testing.T) {
	opt := Options{Deadlines: 3}
	serial, err := MultiSeed(50, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MultiSeedParallel(50, 4, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("stats diverged:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	if _, err := MultiSeedParallel(1, 0, opt, 4); err == nil {
		t.Fatal("zero seeds accepted")
	}
}
