module aqua/bench

go 1.22

require aqua v0.0.0

replace aqua => ../
