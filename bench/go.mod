module github.com/dynamoth/dynamoth/bench

go 1.22

require github.com/dynamoth/dynamoth v0.0.0

replace github.com/dynamoth/dynamoth => ../
