//go:build linux

// Package buildtags is a lint fixture: two files declare one function under
// complementary build constraints, so exactly one of them is in the build.
// The loader must honour the constraints, as the go command does, and not
// see the function declared twice.
package buildtags

func platform() string { return "linux" }
