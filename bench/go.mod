module genas/bench

go 1.24

require genas v0.0.0

replace genas => ../
