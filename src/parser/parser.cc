#include "parser/parser.h"

#include <algorithm>
#include <optional>
#include <span>

#include "common/hash.h"
#include "common/string_util.h"
#include "expr/expr_builder.h"
#include "parser/lexer.h"

namespace prefdb {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Catalog* catalog)
      : tokens_(std::move(tokens)), catalog_(catalog) {}

  StatusOr<ParsedQuery> ParseQuery() {
    ParsedQuery query;
    // SET CACHE ... / SET SLOWLOG ...: pragma statements. They carry no
    // plan; the runner applies them to the session's engine.
    if (PeekKeyword("SET")) {
      Advance();
      // SET SLOWLOG <ms> | OFF: query-log slow-trace threshold.
      if (PeekKeyword("SLOWLOG")) {
        Advance();
        query.slowlog_pragma.present = true;
        if (PeekKeyword("OFF")) {
          Advance();
          query.slowlog_pragma.threshold_ms = -1.0;
        } else {
          ASSIGN_OR_RETURN(int64_t ms,
                           ExpectInteger("slowlog threshold (milliseconds)"));
          if (ms < 0) return Error("slowlog threshold must be >= 0");
          query.slowlog_pragma.threshold_ms = static_cast<double>(ms);
        }
        if (Peek().kind != TokenKind::kEnd) {
          return Error("unexpected trailing input '" + Peek().text + "'");
        }
        return query;
      }
      // SET STATEMENT_TIMEOUT <ms> | OFF: session statement deadline.
      if (PeekKeyword("STATEMENT_TIMEOUT")) {
        Advance();
        query.timeout_pragma.present = true;
        if (PeekKeyword("OFF")) {
          Advance();
          query.timeout_pragma.timeout_ms = -1.0;
        } else {
          ASSIGN_OR_RETURN(int64_t ms,
                           ExpectInteger("statement timeout (milliseconds)"));
          if (ms < 0) return Error("statement timeout must be >= 0");
          query.timeout_pragma.timeout_ms = static_cast<double>(ms);
        }
        if (Peek().kind != TokenKind::kEnd) {
          return Error("unexpected trailing input '" + Peek().text + "'");
        }
        return query;
      }
      // SET MEMORY LIMIT <bytes> | OFF: session memory budget.
      if (PeekKeyword("MEMORY")) {
        Advance();
        RETURN_IF_ERROR(ExpectKeyword("LIMIT"));
        query.memory_pragma.present = true;
        if (PeekKeyword("OFF")) {
          Advance();
          query.memory_pragma.limit_bytes = 0;
        } else {
          ASSIGN_OR_RETURN(int64_t bytes, ExpectInteger("memory byte budget"));
          if (bytes < 0) return Error("memory byte budget must be >= 0");
          query.memory_pragma.limit_bytes = static_cast<size_t>(bytes);
        }
        if (Peek().kind != TokenKind::kEnd) {
          return Error("unexpected trailing input '" + Peek().text + "'");
        }
        return query;
      }
      // SET FAULT '<point>' [AFTER <n>] | OFF: deterministic fault
      // injection (the point name is a string literal — fault points are
      // dotted names like 'engine.execute', not identifiers).
      if (PeekKeyword("FAULT")) {
        Advance();
        query.fault_pragma.present = true;
        if (PeekKeyword("OFF")) {
          Advance();
        } else {
          if (Peek().kind != TokenKind::kString) {
            return Error("expected a quoted fault point after SET FAULT");
          }
          query.fault_pragma.point = Advance().text;
          if (query.fault_pragma.point.empty()) {
            return Error("fault point name must not be empty");
          }
          if (PeekKeyword("AFTER")) {
            Advance();
            ASSIGN_OR_RETURN(int64_t skip, ExpectInteger("fault skip count"));
            if (skip < 0) return Error("fault skip count must be >= 0");
            query.fault_pragma.skip = static_cast<uint64_t>(skip);
          }
        }
        if (Peek().kind != TokenKind::kEnd) {
          return Error("unexpected trailing input '" + Peek().text + "'");
        }
        return query;
      }
      RETURN_IF_ERROR(ExpectKeyword("CACHE"));
      if (PeekKeyword("ON")) {
        Advance();
        query.cache_pragma.kind = CachePragmaKind::kOn;
      } else if (PeekKeyword("OFF")) {
        Advance();
        query.cache_pragma.kind = CachePragmaKind::kOff;
      } else if (PeekKeyword("CLEAR")) {
        Advance();
        query.cache_pragma.kind = CachePragmaKind::kClear;
      } else if (PeekKeyword("LIMIT")) {
        Advance();
        ASSIGN_OR_RETURN(int64_t bytes, ExpectInteger("cache byte budget"));
        if (bytes < 0) return Error("cache byte budget must be >= 0");
        query.cache_pragma.kind = CachePragmaKind::kLimit;
        query.cache_pragma.limit_bytes = static_cast<size_t>(bytes);
      } else {
        return Error("expected ON, OFF, CLEAR or LIMIT after SET CACHE");
      }
      if (Peek().kind != TokenKind::kEnd) {
        return Error("unexpected trailing input '" + Peek().text + "'");
      }
      return query;
    }
    // EXPLAIN ANALYZE <query>: run the query with tracing forced on and
    // render the span tree (QueryResult::explain_analyze).
    if (PeekKeyword("EXPLAIN")) {
      Advance();
      RETURN_IF_ERROR(ExpectKeyword("ANALYZE"));
      query.explain_analyze = true;
    }
    std::optional<PlanShape> shape;
    ASSIGN_OR_RETURN(PlanPtr plan, ParseSelectBlock(&query, &shape));
    while (PeekKeyword("UNION") || PeekKeyword("INTERSECT") ||
           PeekKeyword("EXCEPT")) {
      std::string op = Advance().text;
      // Each block's projection carries that block's preference attributes
      // (for result-level strategies); blocks of a set operation may differ
      // in those extras, so normalize both operands to the user's select
      // list before combining. Preferences are already evaluated below the
      // projection, and projection preserves keys, so nothing is lost.
      if (!query.output_columns.empty()) {
        plan = plan::Project(query.output_columns, std::move(plan));
        Track(*plan, &shape);
      }
      ParsedQuery rhs_meta;
      std::optional<PlanShape> rhs_shape;
      ASSIGN_OR_RETURN(PlanPtr rhs, ParseSelectBlock(&rhs_meta, &rhs_shape));
      for (PreferencePtr& p : rhs_meta.preferences) {
        query.preferences.push_back(std::move(p));
      }
      if (!rhs_meta.output_columns.empty()) {
        rhs = plan::Project(rhs_meta.output_columns, std::move(rhs));
        Track(*rhs, &rhs_shape);
      }
      if (op == "UNION") {
        plan = plan::Union(std::move(plan), std::move(rhs));
      } else if (op == "INTERSECT") {
        plan = plan::Intersect(std::move(plan), std::move(rhs));
      } else {
        plan = plan::Except(std::move(plan), std::move(rhs));
      }
      Track(*plan, &shape, &rhs_shape);
    }

    // USING AGG <name>
    query.agg = *GetAggregateFunction("wsum");
    if (PeekKeyword("USING")) {
      Advance();
      RETURN_IF_ERROR(ExpectKeyword("AGG"));
      ASSIGN_OR_RETURN(Token name, ExpectIdentifier("aggregate function name"));
      ASSIGN_OR_RETURN(query.agg, GetAggregateFunction(name.text));
    }

    // Trailing clauses: filters and conventional ORDER BY / LIMIT.
    while (Peek().kind != TokenKind::kEnd) {
      if (PeekKeyword("TOP")) {
        Advance();
        ASSIGN_OR_RETURN(int64_t k, ExpectInteger("TOP count"));
        RETURN_IF_ERROR(ExpectKeyword("BY"));
        ASSIGN_OR_RETURN(FilterTarget target, ExpectTarget());
        query.filters.push_back(
            FilterSpec::TopK(static_cast<size_t>(k), target));
        continue;
      }
      if (PeekKeyword("WITH")) {
        Advance();
        if (Peek().kind == TokenKind::kIdentifier &&
            EqualsIgnoreCase(Peek().text, "MATCHES")) {
          Advance();
          RETURN_IF_ERROR(ExpectSymbol(">="));
          ASSIGN_OR_RETURN(int64_t n, ExpectInteger("match count"));
          query.filters.push_back(
              FilterSpec::MinMatches(static_cast<size_t>(n)));
          continue;
        }
        ASSIGN_OR_RETURN(FilterTarget target, ExpectTarget());
        bool strict;
        if (Peek().IsSymbol(">")) {
          strict = true;
        } else if (Peek().IsSymbol(">=")) {
          strict = false;
        } else {
          return Error("expected > or >= in WITH filter");
        }
        Advance();
        ASSIGN_OR_RETURN(double value, ExpectNumber("threshold"));
        query.filters.push_back(FilterSpec::Threshold(target, value, strict));
        continue;
      }
      if (PeekKeyword("RANKED")) {
        Advance();
        query.filters.push_back(FilterSpec::RankAll());
        continue;
      }
      if (PeekKeyword("NOT")) {
        Advance();
        RETURN_IF_ERROR(ExpectKeyword("DOMINATED"));
        query.filters.push_back(FilterSpec::NotDominated());
        continue;
      }
      if (PeekKeyword("ORDER")) {
        Advance();
        RETURN_IF_ERROR(ExpectKeyword("BY"));
        std::vector<SortKey> keys;
        while (true) {
          ASSIGN_OR_RETURN(Token col, ExpectIdentifier("sort column"));
          SortKey key{col.text, false};
          if (PeekKeyword("DESC")) {
            Advance();
            key.descending = true;
          } else if (PeekKeyword("ASC")) {
            Advance();
          }
          keys.push_back(std::move(key));
          if (!Peek().IsSymbol(",")) break;
          Advance();
        }
        // Sort columns that the projection dropped must be carried through
        // (SQL permits ordering by non-selected columns).
        EnsureProjected(plan.get(), keys, &shape);
        plan = plan::Sort(std::move(keys), std::move(plan));
        Track(*plan, &shape);
        continue;
      }
      if (PeekKeyword("LIMIT")) {
        Advance();
        ASSIGN_OR_RETURN(int64_t n, ExpectInteger("LIMIT count"));
        plan = plan::Limit(static_cast<size_t>(n), std::move(plan));
        continue;
      }
      // FORMAT CHROME | TEXT: EXPLAIN ANALYZE output rendering.
      if (PeekKeyword("FORMAT")) {
        Advance();
        if (!query.explain_analyze) {
          return Error("FORMAT is only valid after EXPLAIN ANALYZE");
        }
        if (PeekKeyword("CHROME")) {
          Advance();
          query.explain_format = ExplainFormat::kChrome;
        } else if (PeekKeyword("TEXT")) {
          Advance();
          query.explain_format = ExplainFormat::kText;
        } else {
          return Error("expected CHROME or TEXT after FORMAT");
        }
        continue;
      }
      return Error("unexpected token '" + Peek().text + "'");
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    query.plan = std::move(plan);
    return query;  // Implicitly moved into the StatusOr (C++20 [class.copy.elision]).
  }

  /// The first failure of the plan's output validation: the parser derives
  /// the plan's shape one node at a time as it builds it (Track), and the
  /// failure is reported once the whole text has parsed.
  const Status& invalid() const { return invalid_; }

  StatusOr<ExprPtr> ParseStandaloneExpression() {
    ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    return expr;
  }

 private:
  // ----- One SELECT block -------------------------------------------------

  // Parses one SELECT block; `shape` receives the shape of its plan (empty
  // when that does not derive, see Track).
  StatusOr<PlanPtr> ParseSelectBlock(ParsedQuery* query,
                                     std::optional<PlanShape>* shape) {
    RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    bool distinct = false;
    if (PeekKeyword("DISTINCT")) {
      Advance();
      distinct = true;
    }

    std::vector<std::string> select_list;
    bool select_all = false;
    if (Peek().IsSymbol("*")) {
      Advance();
      select_all = true;
    } else {
      while (true) {
        ASSIGN_OR_RETURN(Token col, ExpectIdentifier("column name"));
        select_list.push_back(col.text);
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }

    RETURN_IF_ERROR(ExpectKeyword("FROM"));
    ASSIGN_OR_RETURN(PlanPtr tree, ParseTableRef());
    std::string first_alias = tree->alias;

    while (PeekKeyword("JOIN") || PeekKeyword("SEMIJOIN")) {
      bool semi = Peek().text == "SEMIJOIN";
      Advance();
      ASSIGN_OR_RETURN(PlanPtr right, ParseTableRef());
      RETURN_IF_ERROR(ExpectKeyword("ON"));
      ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      tree = semi ? plan::SemiJoin(std::move(cond), std::move(tree),
                                   std::move(right))
                  : plan::Join(std::move(cond), std::move(tree),
                               std::move(right));
    }

    if (PeekKeyword("WHERE")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      tree = plan::Select(std::move(cond), std::move(tree));
    }

    // Shape before preferences, for resolving preference target relations
    // and the automatic projections.
    ASSIGN_OR_RETURN(PlanShape block, DerivePlanShape(*tree, *catalog_));

    std::vector<PreferencePtr> prefs;
    if (PeekKeyword("PREFERRING")) {
      Advance();
      while (true) {
        ASSIGN_OR_RETURN(PreferencePtr pref,
                         ParsePreference(block.schema, first_alias,
                                         query->preferences.size() +
                                             prefs.size() + 1));
        prefs.push_back(std::move(pref));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }

    // Projection: the select list plus every attribute a prefer operator
    // needs (the paper's parser-added projections). Keys survive
    // automatically (kProject semantics).
    std::vector<std::string> unique;
    if (!select_all) {
      std::vector<std::string> columns = select_list;
      for (const PreferencePtr& pref : prefs) {
        for (const std::string& col : pref->ReferencedColumns()) {
          columns.push_back(col);
        }
        if (pref->membership() != nullptr) {
          columns.push_back(pref->membership()->local_column);
        }
      }
      // Deduplicate by resolved column index to avoid duplicate columns.
      std::vector<size_t> seen;
      for (const std::string& name : columns) {
        ASSIGN_OR_RETURN(size_t idx, block.schema.FindColumn(name));
        if (std::find(seen.begin(), seen.end(), idx) == seen.end()) {
          seen.push_back(idx);
          unique.push_back(name);
        }
      }
    }

    *shape = std::move(block);
    for (const PreferencePtr& pref : prefs) {
      tree = plan::Prefer(pref, std::move(tree));
      Track(*tree, shape);
      query->preferences.push_back(pref);
    }
    if (!select_all) {
      tree = plan::Project(std::move(unique), std::move(tree));
      Track(*tree, shape);
      if (query->output_columns.empty()) {
        query->output_columns = std::move(select_list);
      }
    }
    // Distinct (like Limit) keeps its input's shape and checks nothing.
    if (distinct) tree = plan::Distinct(std::move(tree));
    return tree;
  }

  StatusOr<PlanPtr> ParseTableRef() {
    ASSIGN_OR_RETURN(Token name, ExpectIdentifier("table name"));
    if (!catalog_->HasTable(name.text)) {
      return Error("unknown table: " + name.text);
    }
    std::string alias = name.text;
    if (PeekKeyword("AS")) {
      Advance();
      ASSIGN_OR_RETURN(Token alias_tok, ExpectIdentifier("table alias"));
      alias = alias_tok.text;
    } else if (Peek().kind == TokenKind::kIdentifier) {
      alias = Advance().text;
    }
    return plan::Scan(name.text, alias);
  }

  // ----- Preferences -------------------------------------------------------
  //
  //   [name ':'] '(' condition ')' SCORE expr CONF number
  //       [EXISTS IN member_rel ON local_col '=' member_col]
  StatusOr<PreferencePtr> ParsePreference(const Schema& schema,
                                          const std::string& default_relation,
                                          size_t ordinal) {
    std::string name = "p" + std::to_string(ordinal);
    if (Peek().kind == TokenKind::kIdentifier && PeekAt(1).IsSymbol(":")) {
      name = Advance().text;
      Advance();  // ':'
    }
    RETURN_IF_ERROR(ExpectSymbol("("));
    ASSIGN_OR_RETURN(ExprPtr condition, ParseExpr());
    RETURN_IF_ERROR(ExpectSymbol(")"));
    RETURN_IF_ERROR(ExpectKeyword("SCORE"));
    ASSIGN_OR_RETURN(ExprPtr scoring_expr, ParseAdditive());
    RETURN_IF_ERROR(ExpectKeyword("CONF"));
    ASSIGN_OR_RETURN(double confidence, ExpectNumber("confidence"));

    bool has_membership = false;
    MembershipSpec membership;
    if (PeekKeyword("EXISTS")) {
      Advance();
      RETURN_IF_ERROR(ExpectKeyword("IN"));
      ASSIGN_OR_RETURN(Token member_rel, ExpectIdentifier("member relation"));
      if (!catalog_->HasTable(member_rel.text)) {
        return Error("unknown member relation: " + member_rel.text);
      }
      RETURN_IF_ERROR(ExpectKeyword("ON"));
      ASSIGN_OR_RETURN(Token local, ExpectIdentifier("local column"));
      RETURN_IF_ERROR(ExpectSymbol("="));
      ASSIGN_OR_RETURN(Token member, ExpectIdentifier("member column"));
      membership.member_relation = member_rel.text;
      membership.local_column = local.text;
      membership.member_column = member.text;
      has_membership = true;
    }

    // Validate against the block schema and derive the target relations
    // from the qualifiers of the referenced columns.
    Status st = CheckBinds(*condition, schema);
    if (!st.ok()) {
      return Error("preference condition: " + st.message());
    }
    st = CheckBinds(*scoring_expr, schema);
    if (!st.ok()) {
      return Error("preference scoring: " + st.message());
    }

    std::vector<std::string> columns;
    condition->CollectColumns(&columns);
    scoring_expr->CollectColumns(&columns);
    if (has_membership) columns.push_back(membership.local_column);
    std::vector<std::string> relations;
    for (const std::string& col : columns) {
      ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(col));
      const std::string& qualifier = schema.column(idx).qualifier;
      if (qualifier.empty()) continue;
      bool present = false;
      for (const std::string& r : relations) {
        if (EqualsIgnoreCase(r, qualifier)) {
          present = true;
          break;
        }
      }
      if (!present) relations.push_back(qualifier);
    }
    if (relations.empty()) relations.push_back(default_relation);

    ScoringFunction scoring(std::move(scoring_expr));
    if (has_membership) {
      // Target relation: the first non-member relation referenced.
      return Preference::Membership(std::move(name), relations[0],
                                    std::move(membership), std::move(condition),
                                    std::move(scoring), confidence);
    }
    return PreferencePtr(std::make_shared<Preference>(
        std::move(name), std::move(relations), std::move(condition),
        std::move(scoring), confidence));
  }

  // ----- Expressions -------------------------------------------------------

  StatusOr<ExprPtr> ParseExpr() { return ParseOr(); }

  StatusOr<ExprPtr> ParseOr() {
    ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (PeekKeyword("OR")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = eb::Or(std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAnd() {
    ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (PeekKeyword("AND")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = eb::And(std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseNot() {
    if (PeekKeyword("NOT")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return eb::Not(std::move(operand));
    }
    return ParsePredicate();
  }

  StatusOr<ExprPtr> ParsePredicate() {
    ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    if (Peek().kind == TokenKind::kSymbol) {
      const std::string& sym = Peek().text;
      CompareOp op;
      bool is_cmp = true;
      if (sym == "=") {
        op = CompareOp::kEq;
      } else if (sym == "<>") {
        op = CompareOp::kNe;
      } else if (sym == "<") {
        op = CompareOp::kLt;
      } else if (sym == "<=") {
        op = CompareOp::kLe;
      } else if (sym == ">") {
        op = CompareOp::kGt;
      } else if (sym == ">=") {
        op = CompareOp::kGe;
      } else {
        is_cmp = false;
        op = CompareOp::kEq;
      }
      if (is_cmp) {
        Advance();
        ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return eb::Cmp(op, std::move(left), std::move(right));
      }
    }
    if (PeekKeyword("LIKE")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      return eb::Like(std::move(left), std::move(right));
    }
    if (PeekKeyword("IN")) {
      Advance();
      RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<Value> values;
      while (true) {
        ASSIGN_OR_RETURN(Value v, ExpectLiteralValue());
        values.push_back(std::move(v));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
      RETURN_IF_ERROR(ExpectSymbol(")"));
      return eb::In(std::move(left), std::move(values));
    }
    if (PeekKeyword("BETWEEN")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      RETURN_IF_ERROR(ExpectKeyword("AND"));
      ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      ExprPtr left_copy = left->Clone();
      return eb::And(eb::Ge(std::move(left), std::move(lo)),
                     eb::Le(std::move(left_copy), std::move(hi)));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseAdditive() {
    ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      bool add = Advance().text == "+";
      ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = add ? eb::Add(std::move(left), std::move(right))
                 : eb::Sub(std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseMultiplicative() {
    ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/")) {
      bool mul = Advance().text == "*";
      ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = mul ? eb::Mul(std::move(left), std::move(right))
                 : eb::Div(std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Advance();
      ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      if (operand->kind() == ExprKind::kLiteral) {
        const Value& v = static_cast<LiteralExpr*>(operand.get())->value();
        if (v.is_int()) return eb::Lit(-v.AsInt());
        if (v.is_double()) return eb::Lit(-v.AsDouble());
      }
      return eb::Sub(eb::Lit(static_cast<int64_t>(0)), std::move(operand));
    }
    return ParsePrimary();
  }

  StatusOr<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInteger: {
        int64_t v = std::stoll(Advance().text);
        return eb::Lit(v);
      }
      case TokenKind::kFloat: {
        double v = std::stod(Advance().text);
        return eb::Lit(v);
      }
      case TokenKind::kString:
        return eb::Lit(Advance().text);
      case TokenKind::kKeyword: {
        if (tok.text == "TRUE") {
          Advance();
          return eb::Lit(static_cast<int64_t>(1));
        }
        if (tok.text == "FALSE") {
          Advance();
          return eb::Lit(static_cast<int64_t>(0));
        }
        if (tok.text == "NULL") {
          Advance();
          return eb::Null();
        }
        return Error("unexpected keyword '" + tok.text + "' in expression");
      }
      case TokenKind::kIdentifier: {
        std::string name = Advance().text;
        if (Peek().IsSymbol("(")) {
          if (!FunctionExpr::IsKnownFunction(name)) {
            return Error("unknown function: " + name);
          }
          Advance();
          std::vector<ExprPtr> args;
          if (!Peek().IsSymbol(")")) {
            while (true) {
              ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
              if (!Peek().IsSymbol(",")) break;
              Advance();
            }
          }
          RETURN_IF_ERROR(ExpectSymbol(")"));
          return eb::Fn(std::move(name), std::move(args));
        }
        return eb::Col(std::move(name));
      }
      case TokenKind::kSymbol:
        if (tok.IsSymbol("(")) {
          Advance();
          ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          RETURN_IF_ERROR(ExpectSymbol(")"));
          return inner;
        }
        return Error("unexpected symbol '" + tok.text + "' in expression");
      case TokenKind::kEnd:
        return Error("unexpected end of input in expression");
    }
    return Error("unexpected token in expression");
  }

  // Appends sort columns missing from the first projection under `plan`
  // (walking through Distinct/Sort/Limit, which keep its shape: `shape`) so
  // a later ORDER BY can resolve them. No-op when no projection exists
  // (SELECT *), the node is a set operation (whose inputs must stay
  // union-compatible) or the projection does not derive.
  void EnsureProjected(PlanNode* plan, const std::vector<SortKey>& keys,
                       std::optional<PlanShape>* shape) {
    PlanNode* node = plan;
    while (node->kind == PlanKind::kDistinct || node->kind == PlanKind::kSort ||
           node->kind == PlanKind::kLimit) {
      node = node->mutable_child();
    }
    if (node->kind != PlanKind::kProject || !shape->has_value()) return;
    const size_t before = node->project_columns.size();
    for (const SortKey& key : keys) {
      if (!(*shape)->schema.HasColumn(key.column)) {
        node->project_columns.push_back(key.column);
      }
    }
    if (node->project_columns.size() == before) return;
    // The projection widened: derive the plan's shape anew.
    StatusOr<PlanShape> widened = DerivePlanShape(*plan, *catalog_);
    if (widened.ok()) {
      *shape = std::move(*widened);
    } else {
      shape->reset();
      if (invalid_.ok()) invalid_ = widened.status();
    }
  }

  // Derives the shape of `node`, just built over plans of shape `shape` (and
  // `right`, for a set operation), into `shape`: one step of the plan's
  // output validation. The first failure is kept for invalid(), and nothing
  // above it is derived.
  void Track(const PlanNode& node, std::optional<PlanShape>* shape,
             std::optional<PlanShape>* right = nullptr) {
    if (!shape->has_value() || (right != nullptr && !right->has_value())) {
      shape->reset();
      return;
    }
    PlanShape inputs[] = {std::move(**shape),
                          right != nullptr ? std::move(**right) : PlanShape()};
    StatusOr<PlanShape> derived = DeriveNodeShape(
        node, std::span<PlanShape>(inputs, right != nullptr ? 2 : 1), *catalog_);
    if (derived.ok()) {
      *shape = std::move(*derived);
      return;
    }
    shape->reset();
    if (invalid_.ok()) invalid_ = derived.status();
  }

  // ----- Token helpers -----------------------------------------------------

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAt(size_t ahead) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool PeekKeyword(std::string_view kw) const { return Peek().IsKeyword(kw); }
  const Token& Advance() { return tokens_[pos_++]; }

  Status ExpectKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) {
      return Error(StrFormat("expected %.*s", static_cast<int>(kw.size()),
                             kw.data()));
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(std::string_view sym) {
    if (!Peek().IsSymbol(sym)) {
      return Error(StrFormat("expected '%.*s'", static_cast<int>(sym.size()),
                             sym.data()));
    }
    Advance();
    return Status::OK();
  }

  StatusOr<Token> ExpectIdentifier(const char* what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error(StrFormat("expected %s", what));
    }
    return Advance();
  }

  StatusOr<int64_t> ExpectInteger(const char* what) {
    if (Peek().kind != TokenKind::kInteger) {
      return Error(StrFormat("expected integer %s", what));
    }
    return static_cast<int64_t>(std::stoll(Advance().text));
  }

  StatusOr<double> ExpectNumber(const char* what) {
    if (Peek().kind != TokenKind::kInteger && Peek().kind != TokenKind::kFloat) {
      return Error(StrFormat("expected number %s", what));
    }
    return std::stod(Advance().text);
  }

  StatusOr<Value> ExpectLiteralValue() {
    const Token& tok = Peek();
    if (tok.kind == TokenKind::kInteger) return Value::Int(std::stoll(Advance().text));
    if (tok.kind == TokenKind::kFloat) return Value::Double(std::stod(Advance().text));
    if (tok.kind == TokenKind::kString) return Value::String(Advance().text);
    if (tok.IsKeyword("NULL")) {
      Advance();
      return Value::Null();
    }
    return Error("expected literal value");
  }

  StatusOr<FilterTarget> ExpectTarget() {
    if (PeekKeyword("SCORE")) {
      Advance();
      return FilterTarget::kScore;
    }
    if (PeekKeyword("CONF")) {
      Advance();
      return FilterTarget::kConf;
    }
    return Error("expected SCORE or CONF");
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("parse error at offset %zu: %s", Peek().offset,
                  message.c_str()));
  }

  std::vector<Token> tokens_;
  const Catalog* catalog_;
  size_t pos_ = 0;
  Status invalid_;
};

}  // namespace

StatusOr<ParsedQuery> ParseQuery(std::string_view text, const Catalog& catalog) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), &catalog);
  ASSIGN_OR_RETURN(ParsedQuery query, parser.ParseQuery());
  query.text_hash = FnvMix(kFnvOffsetBasis, text);
  // Output validation: the extended plan must derive a shape. Pragma
  // statements (SET CACHE ...) carry no plan.
  RETURN_IF_ERROR(parser.invalid());
  return query;
}

StatusOr<ExprPtr> ParseExpression(std::string_view text) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), nullptr);
  return parser.ParseStandaloneExpression();
}

}  // namespace prefdb
