// The benchmark is a module of its own so the root module's build and
// tests never see it; the enetstl/ path prefix is what lets it import
// the product's internal packages.
module enetstl/bench

go 1.22

require enetstl v0.0.0

replace enetstl => ../
