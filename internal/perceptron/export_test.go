package perceptron

// OracleFit and OracleScore expose the dense-float training and scoring
// oracle to the external benchmark package: the only perceptron over scaled
// (non-binary) inputs the repository keeps, for the binarization ablation.
var (
	OracleFit   = oldFit
	OracleScore = oldScore
)
