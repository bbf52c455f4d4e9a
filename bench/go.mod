module fedpkd/bench

go 1.22

require fedpkd v0.0.0

replace fedpkd => ../
