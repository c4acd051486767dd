module odin/bench

go 1.24

require odin v0.0.0

replace odin => ../
