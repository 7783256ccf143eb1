package buildtags

// Platform names the system the package was built for.
func Platform() string { return platform() }
