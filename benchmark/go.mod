module maqs/benchmark

go 1.22

require maqs v0.0.0

replace maqs => ../
