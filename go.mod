module imca

go 1.23
