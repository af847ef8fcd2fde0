package pipescript

import "fmt"

// Runtime error codes. internal/errkb classifies these into the paper's
// three groups (KB / SE / RE) and knows local patches for some of them.
const (
	ErrPkgMissing      = "E_PKG_MISSING"       // require-d package not installed (KB)
	ErrUnknownColumn   = "E_UNKNOWN_COLUMN"    // statement references a column that does not exist (RE)
	ErrStringInMatrix  = "E_STRING_IN_MATRIX"  // un-encoded string feature at train time (RE)
	ErrNaNInMatrix     = "E_NAN_IN_MATRIX"     // missing values reached the model (RE)
	ErrTypeMismatch    = "E_TYPE_MISMATCH"     // numeric op on non-numeric column or vice versa (RE)
	ErrBadOption       = "E_BAD_OPTION"        // unparsable option value (RE)
	ErrUnknownModel    = "E_UNKNOWN_MODEL"     // train references an unknown model (RE)
	ErrNoTrainStmt     = "E_NO_TRAIN"          // pipeline never trains a model (RE)
	ErrEmptyData       = "E_EMPTY_DATA"        // all rows/columns eliminated (RE)
	ErrTargetMissing   = "E_TARGET_MISSING"    // target column absent (RE)
	ErrTaskMismatch    = "E_TASK_MISMATCH"     // e.g. rebalance on regression (RE)
	ErrModelOOM        = "E_MODEL_OOM"         // model exceeded its memory budget (RE)
	ErrTooManyFeatures = "E_TOO_MANY_FEATURES" // encoder exploded the feature space (RE)
	ErrOpPanic         = "E_OP_PANIC"          // an op body or the model code it called panicked (RE)
)

// RuntimeError is a pipeline execution failure (the paper's RE class, plus
// the KB class when Code is ErrPkgMissing). It carries the statement line
// so error prompts can cite it, mirroring the <ERROR> tag contents.
type RuntimeError struct {
	Line int
	Code string
	Msg  string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("pipescript: runtime error at line %d [%s]: %s", e.Line, e.Code, e.Msg)
}

func rtErr(line int, code, format string, args ...interface{}) *RuntimeError {
	return &RuntimeError{Line: line, Code: code, Msg: fmt.Sprintf(format, args...)}
}
