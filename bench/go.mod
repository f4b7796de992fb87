module onlineindex/bench

go 1.22

require onlineindex v0.0.0

replace onlineindex => ../
