package main

import (
	"errors"
	"fmt"
)

func main() {
	used()
	fmt.Println(stringer{}, errors.Unwrap(wrapErr{}))
}

func used() { helper() }

func helper() {}

func unused() { // want `function unused is unreachable`
	onlyFromDead()
}

func onlyFromDead() {} // want `function onlyFromDead is unreachable`

func recursive(n int) int { // want `function recursive is unreachable`
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// kept is called only from code the analyzer cannot see.
// hetsynth:keep called from a separate module
func kept() { keptCallee() }

func keptCallee() {}

// bareKeep carries the marker without a reason, which does not count.
// hetsynth:keep
func bareKeep() {} // want `function bareKeep is unreachable`

//hetsynth:ignore deadcode the generic suppression comment works too
func ignored() {}

var initialized = fromInitializer()

func fromInitializer() int { return 1 }

type stringer struct{}

func (stringer) String() string { return "s" }

func (stringer) helperMethod() {} // want `method helperMethod is unreachable`

type wrapErr struct{ err error }

func (w wrapErr) Error() string { return "wrapped" }

func (w wrapErr) Unwrap() error { return w.err }
