module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
