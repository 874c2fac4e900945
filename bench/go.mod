// The benchmark is a module of its own so that it builds against any
// commit of the repository it is copied into. Its path sits under
// "mtmlf/", which is what lets it import mtmlf/internal/... .
module mtmlf/bench

go 1.24

require mtmlf v0.0.0

replace mtmlf => ../
