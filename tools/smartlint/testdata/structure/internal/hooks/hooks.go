// Package hooks holds the test-only row's cases and the allow-directive
// rules as they apply to it.
package hooks

//smartlint:allow structure test hook kept on purpose: the allow covers this declaration only
func Hook()     {}
func Unhooked() {} // want `hooks.Unhooked is exported but no non-test code references it`

// Used has a caller, so an allow on it suppresses nothing.
//
//smartlint:allow structure stale on purpose // want `stale //smartlint:allow structure directive`
func Used() {}

// Called has a caller; the allow beside it gives no reason.
func Called() {} /* want `missing reason` */ //smartlint:allow structure

// TestedOnly is referenced from hooks_test.go alone.
func TestedOnly() {} // want `hooks.TestedOnly is exported but no non-test code references it`

// BenchOnly's one caller is the benchmark module.
func BenchOnly() {}

// Greeter's method is reached through the interface, not by name.
type Greeter interface{ Greet() string }

type english struct{}

// Greet implements Greeter.
func (english) Greet() string { return "hello" }

// Shout has no caller, and no interface declares it.
func (english) Shout() string { return "HELLO" } // want `hooks.english.Shout is exported but no non-test code references it`

// Moder shares the name Mode with pool's method, and nothing more.
type Moder interface {
	Mode() int
	Reset()
}

type pool struct{}

// Mode has no caller. Moder declares the name, but pool is no Moder.
func (pool) Mode() int { return 0 } // want `hooks.pool.Mode is exported but no non-test code references it`

// NewGreeter returns a Greeter.
func NewGreeter() Greeter { return english{} }
