// Package planted is the fixture of TestNoVariantExports: one planted
// variant export the guard must report, beside the names it must let
// through.
package planted

// LearnPlantedObserved is the planted variant export.
func LearnPlantedObserved() {}

// WithPlantedParallel is an option constructor, which the guard allows.
func WithPlantedParallel() {}

// learnTraced is unexported, which the guard ignores.
func learnTraced() {}
