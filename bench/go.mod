module pop/bench

go 1.24

require pop v0.0.0

replace pop => ../
