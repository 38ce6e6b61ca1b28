package dl2sql

import "repro/internal/sqldb"

// preJoinedInputSchema is the layout of the strategy-3 pre-multiplied input
// encoding: {KernelID, MatrixID, Value=feature*weight}. Only the grouped SUM
// of Q1 remains at inference time.
func preJoinedInputSchema() sqldb.Schema {
	return sqldb.Schema{
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "MatrixID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	}
}
