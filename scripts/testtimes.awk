# testtimes.awk summarises a `go test -json` stream the way plain `go test`
# reports it — build errors, every package's ok/FAIL line, the output of each
# failing test — and then lists, for information, every top-level test that
# passed in more than 2 s, slowest first. Give it the stream twice (the first
# pass finds the failures): awk -f scripts/testtimes.awk t.jsonl t.jsonl
# str returns the JSON string field name of the current line, unescaped.
function str(name,    s, i, c, out) {
	i = index($0, "\"" name "\":\"")
	if (i == 0) return ""
	s = substr($0, i + length(name) + 4)
	out = ""
	for (i = 1; i <= length(s); i++) {
		c = substr(s, i, 1)
		if (c == "\"") break
		if (c == "\\") {
			i++
			c = substr(s, i, 1)
			if (c == "n") c = "\n"
			else if (c == "t") c = "\t"
		}
		out = out c
	}
	return out
}
NR == FNR {
	if ($0 ~ /"Action":"fail"/) failed[str("Package") SUBSEP str("Test")] = 1
	if ($0 ~ /"Action":"pass"/ && str("Test") != "" && index(str("Test"), "/") == 0 &&
	    match($0, /"Elapsed":[0-9.]+/) && substr($0, RSTART + 10, RLENGTH - 10) + 0 > 2)
		slow[++nslow] = sprintf("%7.2fs  %s %s", substr($0, RSTART + 10, RLENGTH - 10), str("Package"), str("Test"))
	next
}
/"Action":"build-output"/ { printf "%s", str("Output"); next }
/"Action":"output"/ {
	out = str("Output")
	if (str("Test") != "") {
		if ((str("Package") SUBSEP str("Test")) in failed) printf "%s", out
	} else if ((str("Package") SUBSEP "") in failed || out ~ /^(ok|\?) /) {
		printf "%s", out
	}
}
END {
	if (nslow > 0) {
		print "tests above 2 s (for information):"
		for (i = 1; i <= nslow; i++) print slow[i] | "sort -rn"
	}
}
