#include "sqlengine/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>

#include "common/strings.h"

namespace esharp::sql {

void FunctionRegistry::RegisterScalar(const std::string& name, ScalarUdf fn) {
  scalars_[ToLowerAscii(name)] = std::move(fn);
}

Result<ScalarUdf> FunctionRegistry::LookupScalar(const std::string& name) const {
  auto it = scalars_.find(ToLowerAscii(name));
  if (it == scalars_.end()) {
    return Status::NotFound("unknown function '", name, "'");
  }
  return it->second;
}

bool FunctionRegistry::HasScalar(const std::string& name) const {
  return scalars_.count(ToLowerAscii(name)) > 0;
}

namespace {

// --------------------------------------------------------------- Lexer ----

enum class TokenKind {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // punctuation and operators
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifiers lower-cased; symbols verbatim
  std::string raw;    // original spelling (for error messages)
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < sql_.size()) {
      char c = sql_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '-' && pos_ + 1 < sql_.size() && sql_[pos_ + 1] == '-') {
        // Line comment.
        while (pos_ < sql_.size() && sql_[pos_] != '\n') ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
          c == '#') {
        out.push_back(LexIdent());
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && pos_ + 1 < sql_.size() &&
           std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])))) {
        ESHARP_ASSIGN_OR_RETURN(Token t, LexNumber());
        out.push_back(std::move(t));
        continue;
      }
      if (c == '\'') {
        ESHARP_ASSIGN_OR_RETURN(Token t, LexString());
        out.push_back(std::move(t));
        continue;
      }
      ESHARP_ASSIGN_OR_RETURN(Token t, LexSymbol());
      out.push_back(std::move(t));
    }
    out.push_back(Token{TokenKind::kEnd, "", "", pos_});
    return out;
  }

 private:
  Token LexIdent() {
    size_t start = pos_;
    while (pos_ < sql_.size() &&
           (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
            sql_[pos_] == '_' || sql_[pos_] == '#')) {
      ++pos_;
    }
    std::string raw(sql_.substr(start, pos_ - start));
    return Token{TokenKind::kIdent, ToLowerAscii(raw), raw, start};
  }

  Result<Token> LexNumber() {
    size_t start = pos_;
    bool saw_dot = false;
    while (pos_ < sql_.size() &&
           (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
            sql_[pos_] == '.')) {
      if (sql_[pos_] == '.') {
        if (saw_dot) break;  // "1.2.3": stop at second dot
        saw_dot = true;
      }
      ++pos_;
    }
    std::string raw(sql_.substr(start, pos_ - start));
    return Token{TokenKind::kNumber, raw, raw, start};
  }

  Result<Token> LexString() {
    size_t start = pos_;
    ++pos_;  // opening quote
    std::string value;
    while (pos_ < sql_.size()) {
      if (sql_[pos_] == '\'') {
        if (pos_ + 1 < sql_.size() && sql_[pos_ + 1] == '\'') {
          value += '\'';  // doubled quote escape
          pos_ += 2;
          continue;
        }
        ++pos_;
        return Token{TokenKind::kString, value,
                     std::string(sql_.substr(start, pos_ - start)), start};
      }
      value += sql_[pos_++];
    }
    return Status::InvalidArgument("unterminated string literal at offset ",
                                   start);
  }

  Result<Token> LexSymbol() {
    static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
    size_t start = pos_;
    for (const char* two : kTwoChar) {
      if (sql_.substr(pos_, 2) == two) {
        pos_ += 2;
        return Token{TokenKind::kSymbol, two, two, start};
      }
    }
    static const std::string kOneChar = "(),.*=<>+-/";
    char c = sql_[pos_];
    if (kOneChar.find(c) != std::string::npos) {
      ++pos_;
      return Token{TokenKind::kSymbol, std::string(1, c), std::string(1, c),
                   start};
    }
    return Status::InvalidArgument("unexpected character '",
                                   std::string(1, c), "' at offset ", pos_);
  }

  std::string_view sql_;
  size_t pos_ = 0;
};

// -------------------------------------------------------------- Parser ----

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "min" ||
         name == "max" || name == "avg" || name == "argmax" ||
         name == "argmin";
}

// One SELECT-list item: either a scalar expression or an aggregate call.
struct SelectItem {
  ExprPtr expr;                  // null when aggregate
  std::optional<AggSpec> agg;    // set when aggregate
  std::string name;              // output column name
  std::string source_text;       // rendered expression (group-key matching)
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const FunctionRegistry& registry)
      : tokens_(std::move(tokens)), registry_(registry) {}

  Result<Plan> ParseStatement() {
    ESHARP_ASSIGN_OR_RETURN(Plan plan, ParseSelect());
    if (!AtEnd()) {
      return Status::InvalidArgument("trailing input after statement: '",
                                     Peek().raw, "'");
    }
    return plan;
  }

 private:
  // --- token helpers ---
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(index_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  Token Next() { return tokens_[std::min(index_++, tokens_.size() - 1)]; }
  bool PeekKeyword(const std::string& kw, size_t ahead = 0) const {
    return Peek(ahead).kind == TokenKind::kIdent && Peek(ahead).text == kw;
  }
  bool ConsumeKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      Next();
      return true;
    }
    return false;
  }
  bool PeekSymbol(const std::string& sym) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == sym;
  }
  bool ConsumeSymbol(const std::string& sym) {
    if (PeekSymbol(sym)) {
      Next();
      return true;
    }
    return false;
  }
  Status Expect(const std::string& what, bool ok) const {
    if (ok) return Status::OK();
    return Status::InvalidArgument("expected ", what, " but found '",
                                   Peek().raw.empty() ? "<end>" : Peek().raw,
                                   "'");
  }
  Status ExpectSymbol(const std::string& sym) {
    ESHARP_RETURN_NOT_OK(Expect("'" + sym + "'", PeekSymbol(sym)));
    Next();
    return Status::OK();
  }
  Status ExpectKeyword(const std::string& kw) {
    ESHARP_RETURN_NOT_OK(Expect("keyword " + kw, PeekKeyword(kw)));
    Next();
    return Status::OK();
  }

  static bool IsReserved(const std::string& word) {
    static const char* kReserved[] = {
        "select", "from",  "where", "group", "order", "by",    "limit",
        "join",   "inner", "left",  "outer", "on",    "as",    "and",
        "or",     "not",   "true",  "false", "null",  "asc",   "desc",
        "distinct", "union", "all", "having",
    };
    for (const char* r : kReserved) {
      if (word == r) return true;
    }
    return false;
  }

  // --- nesting limits ---
  // depth_ counts the parser's own recursion: parentheses, unary operators,
  // call arguments, subqueries and UNION ALL chains. height_ is the height
  // of the expression or plan parsed last, which left-folded chains
  // (a + b + c, JOIN ... JOIN) grow without recursing. Both stop at
  // kMaxSqlNesting, so neither this parser nor the recursive walks over
  // what it returns (Explain, Bind, Eval, execution, destruction) can run
  // out of stack.
  Status TooDeep() const {
    return Status::InvalidArgument("SQL nests deeper than ", kMaxSqlNesting,
                                   " levels at offset ", Peek().pos);
  }
  Status Descend() {
    return ++depth_ > kMaxSqlNesting ? TooDeep() : Status::OK();
  }
  void Ascend() { --depth_; }
  // A new node over children of heights `a` and `b`.
  Status Grow(size_t a, size_t b = 0) {
    height_ = 1 + std::max(a, b);
    return height_ > kMaxSqlNesting ? TooDeep() : Status::OK();
  }

  // --- literals ---
  // Parses all of `text` as a T; false when it does not fit or has junk.
  template <typename T>
  static bool ParseWhole(const std::string& text, T* out) {
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
  }

  // Number tokens are digits with at most one '.': DOUBLE when dotted,
  // INT64 otherwise. A value the type cannot hold is an error.
  static Result<ExprPtr> NumberLiteral(const Token& tok) {
    const bool dotted = tok.text.find('.') != std::string::npos;
    double d = 0;
    int64_t i = 0;
    if (dotted ? !ParseWhole(tok.text, &d) : !ParseWhole(tok.text, &i)) {
      return Status::InvalidArgument("numeric literal at offset ", tok.pos,
                                     " is out of range for ",
                                     dotted ? "DOUBLE" : "INT64");
    }
    return dotted ? LitDouble(d) : LitInt(i);
  }

  // --- expressions (precedence climbing) ---
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    ESHARP_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (ConsumeKeyword("or")) {
      const size_t left_height = height_;
      ESHARP_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      ESHARP_RETURN_NOT_OK(Grow(left_height, height_));
      left = Or(left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    ESHARP_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (ConsumeKeyword("and")) {
      const size_t left_height = height_;
      ESHARP_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      ESHARP_RETURN_NOT_OK(Grow(left_height, height_));
      left = And(left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("not")) {
      ESHARP_RETURN_NOT_OK(Descend());
      ESHARP_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      Ascend();
      ESHARP_RETURN_NOT_OK(Grow(height_));
      return Not(operand);
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    ESHARP_ASSIGN_OR_RETURN(ExprPtr left, ParseAddSub());
    struct OpMap {
      const char* sym;
      Expr::BinaryOp op;
    };
    static const OpMap kOps[] = {
        {"=", Expr::BinaryOp::kEq},  {"!=", Expr::BinaryOp::kNe},
        {"<>", Expr::BinaryOp::kNe}, {"<=", Expr::BinaryOp::kLe},
        {">=", Expr::BinaryOp::kGe}, {"<", Expr::BinaryOp::kLt},
        {">", Expr::BinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (PeekSymbol(m.sym)) {
        Next();
        const size_t left_height = height_;
        ESHARP_ASSIGN_OR_RETURN(ExprPtr right, ParseAddSub());
        ESHARP_RETURN_NOT_OK(Grow(left_height, height_));
        return BinaryExpr(m.op, left, right);
      }
    }
    return left;
  }

  Result<ExprPtr> ParseAddSub() {
    ESHARP_ASSIGN_OR_RETURN(ExprPtr left, ParseMulDiv());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      bool add = Next().text == "+";
      const size_t left_height = height_;
      ESHARP_ASSIGN_OR_RETURN(ExprPtr right, ParseMulDiv());
      ESHARP_RETURN_NOT_OK(Grow(left_height, height_));
      left = add ? Add(left, right) : Sub(left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseMulDiv() {
    ESHARP_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (PeekSymbol("*") || PeekSymbol("/")) {
      bool mul = Next().text == "*";
      const size_t left_height = height_;
      ESHARP_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      ESHARP_RETURN_NOT_OK(Grow(left_height, height_));
      left = mul ? Mul(left, right) : Div(left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (ConsumeSymbol("-")) {
      ESHARP_RETURN_NOT_OK(Descend());
      ESHARP_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      Ascend();
      ESHARP_RETURN_NOT_OK(Grow(height_));
      return UnaryExpr(Expr::UnaryOp::kNeg, operand);
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    height_ = 0;
    switch (t.kind) {
      case TokenKind::kNumber:
        return NumberLiteral(Next());
      case TokenKind::kString: {
        Token tok = Next();
        return LitString(tok.text);
      }
      case TokenKind::kSymbol:
        if (ConsumeSymbol("(")) {
          ESHARP_RETURN_NOT_OK(Descend());
          ESHARP_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          Ascend();
          ESHARP_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        break;
      case TokenKind::kIdent: {
        if (ConsumeKeyword("true")) return LitBool(true);
        if (ConsumeKeyword("false")) return LitBool(false);
        if (ConsumeKeyword("null")) return Lit(Value::Null());
        Token ident = Next();
        // Function call?
        if (PeekSymbol("(")) {
          if (IsAggregateName(ident.text)) {
            return Status::InvalidArgument(
                "aggregate '", ident.raw,
                "' is only allowed in the SELECT list of a grouped query");
          }
          ESHARP_ASSIGN_OR_RETURN(ScalarUdf fn,
                                  registry_.LookupScalar(ident.text));
          Next();  // '('
          ESHARP_RETURN_NOT_OK(Descend());
          std::vector<ExprPtr> args;
          size_t args_height = 0;
          if (!PeekSymbol(")")) {
            for (;;) {
              ESHARP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(arg);
              args_height = std::max(args_height, height_);
              if (!ConsumeSymbol(",")) break;
            }
          }
          Ascend();
          ESHARP_RETURN_NOT_OK(ExpectSymbol(")"));
          ESHARP_RETURN_NOT_OK(Grow(args_height));
          return Udf(ident.text, fn, args);
        }
        // Qualified column: alias.column
        if (ConsumeSymbol(".")) {
          ESHARP_RETURN_NOT_OK(
              Expect("column name", Peek().kind == TokenKind::kIdent));
          Token col = Next();
          return ColFlexible(ident.text + "." + col.text);
        }
        return ColFlexible(ident.text);
      }
      default:
        break;
    }
    return Status::InvalidArgument("unexpected token '",
                                   t.raw.empty() ? "<end>" : t.raw,
                                   "' in expression");
  }

  // --- SELECT-list items (expressions or aggregate calls) ---
  Result<SelectItem> ParseSelectItem(size_t ordinal) {
    SelectItem item;
    // Aggregate call?
    if (Peek().kind == TokenKind::kIdent && IsAggregateName(Peek().text) &&
        Peek(1).kind == TokenKind::kSymbol && Peek(1).text == "(") {
      Token fn = Next();
      Next();  // '('
      if (fn.text == "count" && ConsumeSymbol("*")) {
        ESHARP_RETURN_NOT_OK(ExpectSymbol(")"));
        item.agg = CountStar("");
      } else if (fn.text == "argmax" || fn.text == "argmin") {
        ESHARP_ASSIGN_OR_RETURN(ExprPtr order, ParseExpr());
        ESHARP_RETURN_NOT_OK(ExpectSymbol(","));
        ESHARP_ASSIGN_OR_RETURN(ExprPtr output, ParseExpr());
        ESHARP_RETURN_NOT_OK(ExpectSymbol(")"));
        item.agg = fn.text == "argmax" ? ArgMaxOf(order, output, "")
                                       : ArgMinOf(order, output, "");
      } else {
        ESHARP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        ESHARP_RETURN_NOT_OK(ExpectSymbol(")"));
        if (fn.text == "count") {
          item.agg = AggSpec{AggKind::kCount, arg, nullptr, ""};
        } else if (fn.text == "sum") {
          item.agg = SumOf(arg, "");
        } else if (fn.text == "min") {
          item.agg = MinOf(arg, "");
        } else if (fn.text == "max") {
          item.agg = MaxOf(arg, "");
        } else {
          item.agg = AvgOf(arg, "");
        }
      }
      item.source_text = fn.text;
    } else {
      ESHARP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      item.source_text = item.expr->ToString();
    }
    // Alias: AS name | bare name.
    if (ConsumeKeyword("as")) {
      ESHARP_RETURN_NOT_OK(
          Expect("output name", Peek().kind == TokenKind::kIdent));
      item.name = Next().text;
    } else if (Peek().kind == TokenKind::kIdent && !IsReserved(Peek().text)) {
      item.name = Next().text;
    } else {
      item.name = item.expr != nullptr ? item.source_text
                                       : StrFormat("column%zu", ordinal);
    }
    if (item.agg.has_value()) item.agg->name = item.name;
    return item;
  }

  // --- FROM items and joins ---
  Result<Plan> ParseFromItem() {
    if (ConsumeSymbol("(")) {
      ESHARP_RETURN_NOT_OK(Descend());
      ESHARP_ASSIGN_OR_RETURN(Plan sub, ParseSelect());
      Ascend();
      ESHARP_RETURN_NOT_OK(ExpectSymbol(")"));
      ConsumeKeyword("as");
      ESHARP_RETURN_NOT_OK(
          Expect("subquery alias", Peek().kind == TokenKind::kIdent));
      std::string alias = Next().text;
      ESHARP_RETURN_NOT_OK(Grow(height_));
      return sub.As(alias);
    }
    height_ = 0;
    ESHARP_RETURN_NOT_OK(
        Expect("table name", Peek().kind == TokenKind::kIdent));
    std::string table = Next().text;
    Plan plan = Plan::Scan(table);
    if (ConsumeKeyword("as")) {
      ESHARP_RETURN_NOT_OK(
          Expect("alias", Peek().kind == TokenKind::kIdent));
      return plan.As(Next().text);
    }
    if (Peek().kind == TokenKind::kIdent && !IsReserved(Peek().text)) {
      return plan.As(Next().text);
    }
    // Standard SQL: an unaliased table is qualified by its own name.
    return plan.As(table);
  }

  // ON a.x = b.y [AND c = d ...]: split equalities into key column lists.
  Status ParseJoinCondition(std::vector<std::string>* left_keys,
                            std::vector<std::string>* right_keys) {
    for (;;) {
      ESHARP_ASSIGN_OR_RETURN(std::string a, ParseColumnRefText());
      ESHARP_RETURN_NOT_OK(ExpectSymbol("="));
      ESHARP_ASSIGN_OR_RETURN(std::string b, ParseColumnRefText());
      left_keys->push_back(a);
      right_keys->push_back(b);
      if (!ConsumeKeyword("and")) break;
    }
    return Status::OK();
  }

  Result<std::string> ParseColumnRefText() {
    ESHARP_RETURN_NOT_OK(
        Expect("column reference", Peek().kind == TokenKind::kIdent));
    std::string name = Next().text;
    if (ConsumeSymbol(".")) {
      ESHARP_RETURN_NOT_OK(
          Expect("column name", Peek().kind == TokenKind::kIdent));
      name += "." + Next().text;
    }
    return name;
  }

  // --- the SELECT statement ---
  Result<Plan> ParseSelect() {
    ESHARP_RETURN_NOT_OK(ExpectKeyword("select"));
    bool distinct = ConsumeKeyword("distinct");

    bool select_star = false;
    std::vector<SelectItem> items;
    if (ConsumeSymbol("*")) {
      select_star = true;
    } else {
      for (;;) {
        ESHARP_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem(items.size()));
        items.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }

    ESHARP_RETURN_NOT_OK(ExpectKeyword("from"));
    ESHARP_ASSIGN_OR_RETURN(Plan plan, ParseFromItem());
    size_t plan_height = height_;

    // Joins.
    for (;;) {
      JoinType join_type = JoinType::kInner;
      if (ConsumeKeyword("inner")) {
        ESHARP_RETURN_NOT_OK(ExpectKeyword("join"));
      } else if (ConsumeKeyword("left")) {
        ConsumeKeyword("outer");
        ESHARP_RETURN_NOT_OK(ExpectKeyword("join"));
        join_type = JoinType::kLeftOuter;
      } else if (ConsumeKeyword("join")) {
        // plain JOIN == INNER JOIN
      } else {
        break;
      }
      ESHARP_ASSIGN_OR_RETURN(Plan right, ParseFromItem());
      ESHARP_RETURN_NOT_OK(Grow(plan_height, height_));
      plan_height = height_;
      ESHARP_RETURN_NOT_OK(ExpectKeyword("on"));
      std::vector<std::string> left_keys, right_keys;
      ESHARP_RETURN_NOT_OK(ParseJoinCondition(&left_keys, &right_keys));
      plan = plan.Join(right, left_keys, right_keys, join_type);
    }

    // WHERE.
    if (ConsumeKeyword("where")) {
      ESHARP_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      plan = plan.Where(pred);
    }

    // GROUP BY ... [HAVING ...].
    std::vector<std::string> group_keys;
    bool grouped = false;
    ExprPtr having;
    if (ConsumeKeyword("group")) {
      ESHARP_RETURN_NOT_OK(ExpectKeyword("by"));
      grouped = true;
      for (;;) {
        ESHARP_ASSIGN_OR_RETURN(std::string key, ParseColumnRefText());
        group_keys.push_back(key);
        if (!ConsumeSymbol(",")) break;
      }
      if (ConsumeKeyword("having")) {
        // HAVING references the SELECT output names (aliases), which is
        // where aggregates are visible after the rewrite below.
        ESHARP_ASSIGN_OR_RETURN(having, ParseExpr());
      }
    }

    bool has_aggregates = false;
    for (const SelectItem& item : items) {
      if (item.agg.has_value()) has_aggregates = true;
    }

    if (grouped || has_aggregates) {
      if (select_star) {
        return Status::InvalidArgument("SELECT * cannot be grouped");
      }
      ESHARP_ASSIGN_OR_RETURN(
          plan, BuildAggregate(plan, items, group_keys));
      if (having != nullptr) plan = plan.Where(having);
    } else if (!select_star) {
      std::vector<ProjectedColumn> cols;
      cols.reserve(items.size());
      for (const SelectItem& item : items) {
        cols.push_back({item.expr, item.name});
      }
      plan = plan.Select(cols);
    }

    if (distinct) plan = plan.Distinct();

    // ORDER BY (over the select-list output names).
    if (ConsumeKeyword("order")) {
      ESHARP_RETURN_NOT_OK(ExpectKeyword("by"));
      std::vector<std::string> keys;
      std::vector<bool> ascending;
      for (;;) {
        ESHARP_ASSIGN_OR_RETURN(std::string key, ParseColumnRefText());
        keys.push_back(key);
        if (ConsumeKeyword("desc")) {
          ascending.push_back(false);
        } else {
          ConsumeKeyword("asc");
          ascending.push_back(true);
        }
        if (!ConsumeSymbol(",")) break;
      }
      plan = plan.OrderBy(keys, ascending);
    }

    // LIMIT.
    if (ConsumeKeyword("limit")) {
      ESHARP_RETURN_NOT_OK(
          Expect("limit count", Peek().kind == TokenKind::kNumber));
      const Token count = Next();
      size_t n = 0;
      if (!ParseWhole(count.text, &n)) {
        return Status::InvalidArgument("LIMIT count at offset ", count.pos,
                                       " is not a 64-bit row count");
      }
      plan = plan.Take(n);
    }

    // UNION ALL chains whole selects.
    if (ConsumeKeyword("union")) {
      ESHARP_RETURN_NOT_OK(ExpectKeyword("all"));
      ESHARP_RETURN_NOT_OK(Descend());
      ESHARP_ASSIGN_OR_RETURN(Plan rest, ParseSelect());
      Ascend();
      ESHARP_RETURN_NOT_OK(Grow(plan_height, height_));
      plan_height = height_;
      plan = plan.Union(rest);
    }
    height_ = plan_height;
    return plan;
  }

  // Grouped query: rewrite into Project(keys + agg args) -> Aggregate ->
  // Project(select order), so the engine's column-name-keyed aggregate
  // kernel is sufficient.
  Result<Plan> BuildAggregate(const Plan& input,
                              const std::vector<SelectItem>& items,
                              const std::vector<std::string>& group_keys) {
    std::vector<ProjectedColumn> pre;
    // Group keys first, under canonical names "__key_<i>".
    std::vector<std::string> key_names;
    for (size_t i = 0; i < group_keys.size(); ++i) {
      std::string name = StrFormat("__key_%zu", i);
      pre.push_back({ColFlexible(group_keys[i]), name});
      key_names.push_back(name);
    }
    // Aggregate inputs as synthetic columns.
    std::vector<AggSpec> aggs;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!items[i].agg.has_value()) continue;
      AggSpec spec = *items[i].agg;
      if (spec.arg) {
        std::string arg_name = StrFormat("__agg_arg_%zu", i);
        pre.push_back({spec.arg, arg_name});
        spec.arg = Col(arg_name);
      }
      if (spec.output) {
        std::string out_name = StrFormat("__agg_out_%zu", i);
        pre.push_back({spec.output, out_name});
        spec.output = Col(out_name);
      }
      aggs.push_back(std::move(spec));
    }

    Plan plan = input.Select(pre).GroupBy(key_names, aggs);

    // Final projection in SELECT order: group keys by matching source text,
    // aggregates by their assigned output names.
    std::vector<ProjectedColumn> final_cols;
    for (const SelectItem& item : items) {
      if (item.agg.has_value()) {
        final_cols.push_back({Col(item.agg->name), item.name});
        continue;
      }
      // Non-aggregate item must match a group key expression.
      bool matched = false;
      for (size_t k = 0; k < group_keys.size(); ++k) {
        if (item.source_text == group_keys[k]) {
          final_cols.push_back({Col(key_names[k]), item.name});
          matched = true;
          break;
        }
      }
      if (!matched) {
        return Status::InvalidArgument(
            "SELECT item '", item.source_text,
            "' is neither an aggregate nor listed in GROUP BY");
      }
    }
    return plan.Select(final_cols);
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  const FunctionRegistry& registry_;
  size_t depth_ = 0;
  size_t height_ = 0;
};

}  // namespace

Result<Plan> ParseSql(std::string_view sql, const FunctionRegistry& registry) {
  Lexer lexer(sql);
  ESHARP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), registry);
  return parser.ParseStatement();
}

Result<Table> ExecuteSql(std::string_view sql, const Catalog& catalog,
                         const FunctionRegistry& registry,
                         const ExecutorOptions& options) {
  ESHARP_ASSIGN_OR_RETURN(Plan plan, ParseSql(sql, registry));
  Executor executor(options);
  return executor.Execute(plan, catalog);
}

}  // namespace esharp::sql
