//go:build !amd64

package la

import "testing"

// bothBodies runs f on the Go loops, the only bodies this build has.
func bothBodies(t *testing.T, f func(t *testing.T)) { t.Run("go", f) }

// eachBody calls f on the Go loops, named "go".
func eachBody(f func(name string)) { f("go") }
