module db4ml/bench

go 1.22

require db4ml v0.0.0

replace db4ml => ../
