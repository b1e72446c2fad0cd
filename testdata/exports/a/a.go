// Package a plants exports for the public-surface guard's self-test: three
// are dead (DeadFunc, Widget.DeadMethod, Config.Dead), every other one is
// referenced or set by one of the rules the guard honours.
package a

// Live is called from package b.
func Live() int { return int(KindA) + table }

// DeadFunc is referenced only by this package's own tests: reported.
func DeadFunc() {}

// Oracle is used only by package b's tests: a shared test oracle, kept.
func Oracle() {}

// Widget is named from package b.
type Widget struct{}

// LiveMethod is selected in package b.
func (Widget) LiveMethod() {}

// DeadMethod is never selected: reported.
func (Widget) DeadMethod() {}

// String is called through fmt.Stringer.
func (Widget) String() string { return "widget" }

// hidden is unexported, so its exported methods are not public surface.
type hidden struct{}

// Exported is on an unexported type: skipped.
func (hidden) Exported() {}

// Kind is used inside this package.
type Kind int

// KindB and KindC are never named, but KindA is: their positions fix every
// later value, so the block is kept whole.
const (
	KindA Kind = iota
	KindB
	KindC
)

var table = len(Table)

// Table is referenced by a bare identifier inside its own package.
var Table = []int{1, 2}

// Config is a knob-guarded config: package b sets Live by a literal key and
// Assigned by an assignment.
type Config struct {
	Live     int
	Assigned int
	// Dead is set only by withDefaults and this package's tests: reported.
	Dead int
	// seam is unexported: not public surface.
	seam int
}

// withDefaults's own assignments do not count as a caller setting a field.
func (c Config) withDefaults() Config {
	if c.Dead == 0 {
		c.Dead = 1
	}
	c.seam = 1
	return c
}

// Resolve is called from package b.
func Resolve(c Config) int { return c.withDefaults().Dead + c.seam }
