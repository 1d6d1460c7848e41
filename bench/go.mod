module github.com/text-analytics/ntadoc/bench

go 1.22

require github.com/text-analytics/ntadoc v0.0.0

replace github.com/text-analytics/ntadoc => ../
