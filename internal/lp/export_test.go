package lp

// CheckRefactorOracle lets the external test package, which can import
// lp/gen, hold refactor to the dense-scan oracle on the generated families.
var CheckRefactorOracle = checkRefactorOracle
