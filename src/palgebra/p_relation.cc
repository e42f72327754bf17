#include "palgebra/p_relation.h"

#include "common/string_util.h"

namespace prefdb {

PRelation::PRelation(Relation relation, const ScoreRelation& score_rel)
    : rel(std::move(relation)) {
  pairs.reserve(rel.NumRows());
  for (const Tuple& row : rel.rows()) {
    pairs.push_back(score_rel.Lookup(RowKey{row, rel.key_columns()}));
  }
}

ScoreRelation PRelation::ToScoreRelation() const {
  ScoreRelation out;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!pairs[i].IsDefault()) {
      out.Set(rel.KeyOf(rel.rows()[i]), pairs[i]);
    }
  }
  return out;
}

std::string PRelation::ToString(size_t max_rows) const {
  size_t scored = 0;
  for (const ScoreConf& pair : pairs) scored += pair.IsDefault() ? 0 : 1;
  std::string out = rel.schema().ToString() +
                    StrFormat(" [%zu rows, %zu scored]\n", rel.NumRows(), scored);
  for (size_t i = 0; i < rel.NumRows(); ++i) {
    if (i >= max_rows) {
      out += StrFormat("  ... (%zu more)\n", rel.NumRows() - max_rows);
      break;
    }
    out += "  " + TupleToString(rel.rows()[i]) + " " + pairs[i].ToString() + "\n";
  }
  return out;
}

Relation ToScoredRelation(const PRelation& input) {
  Schema schema = input.rel.schema();
  schema.AddColumn(Column{"", "score", ValueType::kDouble});
  schema.AddColumn(Column{"", "conf", ValueType::kDouble});
  Relation out(std::move(schema));
  out.set_key_columns(input.rel.key_columns());
  out.Reserve(input.rel.NumRows());
  for (size_t i = 0; i < input.rel.NumRows(); ++i) {
    const ScoreConf& pair = input.pairs[i];
    Tuple extended = input.rel.rows()[i];
    extended.push_back(pair.has_score() ? Value::Double(pair.score())
                                        : Value::Null());
    extended.push_back(Value::Double(pair.conf()));
    out.AddRow(std::move(extended));
  }
  return out;
}

}  // namespace prefdb
