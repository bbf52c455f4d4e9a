package nn

// HasTwin reports whether an eval-mode walk over n has gone wide, which
// builds n's twin.
func HasTwin(n *Network) bool { return n.twin != nil }
