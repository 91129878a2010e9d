module svdbench/bench

go 1.22

require svdbench v0.0.0

replace svdbench => ../
