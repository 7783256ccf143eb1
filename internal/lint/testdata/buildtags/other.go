//go:build !linux

package buildtags

func platform() string { return "other" }
