// Package planted is the fixture of TestNoVariantExports: a planted
// variant export and a planted registry twin the guard must report,
// beside the names it must let through.
package planted

// LearnPlantedObserved is the planted variant export.
func LearnPlantedObserved() {}

// CountPlantedInto is the planted registry twin.
func CountPlantedInto() {}

// WithPlantedInto is a registry twin of an option constructor, which
// the guard also reports.
func WithPlantedInto() {}

// Parallel is a bare mechanism name, which the guard allows.
func Parallel() {}

// WithPlantedParallel is an option constructor, which the guard allows.
func WithPlantedParallel() {}

// learnTraced is unexported, which the guard ignores.
func learnTraced() {}
