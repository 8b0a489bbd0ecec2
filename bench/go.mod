// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the replace directive lets it import
// the repository's internal packages (its module path sits under smartchain/).
module smartchain/bench

go 1.22

require smartchain v0.0.0

replace smartchain => ../
