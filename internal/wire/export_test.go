package wire

// AppendFloat lends the writer's float kernel to the external
// benchmarks (bench_test.go).
var AppendFloat = appendFloat
