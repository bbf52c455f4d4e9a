//go:build !poisonrelease

package transport

// poisonReleased makes every buffer returned to a free list overwrite itself
// first. It is false unless the package is built with -tags poisonrelease
// (poison_on.go).
const poisonReleased = false
