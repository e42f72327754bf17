#include "palgebra/p_relation.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace prefdb {

std::string PRelation::ToString(size_t max_rows) const {
  size_t scored = 0;
  for (const ScoreConf& pair : pairs) scored += pair.IsDefault() ? 0 : 1;
  std::string out = schema().ToString() +
                    StrFormat(" [%zu rows, %zu scored]\n", NumRows(), scored);
  for (size_t i = 0; i < NumRows(); ++i) {
    if (i >= max_rows) {
      out += StrFormat("  ... (%zu more)\n", NumRows() - max_rows);
      break;
    }
    out += "  " + TupleToString(view.GatherRow(i)) + " " + pairs[i].ToString() + "\n";
  }
  return out;
}

Relation ToScoredRelation(const PRelation& input) {
  if (input.pairs.size() != input.NumRows()) {
    std::fprintf(stderr, "ToScoredRelation: %zu pairs for %zu rows\n",
                 input.pairs.size(), input.NumRows());
    std::abort();
  }
  Schema schema = input.schema();
  schema.AddColumn(Column{"", "score", ValueType::kDouble});
  schema.AddColumn(Column{"", "conf", ValueType::kDouble});
  Relation out(std::move(schema));
  out.set_key_columns(input.key_columns());
  out.Reserve(input.NumRows());
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const ScoreConf& pair = input.pairs[i];
    Tuple extended = input.view.GatherRow(i);
    extended.push_back(pair.has_score() ? Value::Double(pair.score())
                                        : Value::Null());
    extended.push_back(Value::Double(pair.conf()));
    out.AddRow(std::move(extended));
  }
  return out;
}

}  // namespace prefdb
