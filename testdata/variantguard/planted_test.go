package planted

// AskTraced sits in a test file, which the guard ignores.
func AskTraced() {}
