#include "tgd/parser.h"

#include <cctype>
#include <map>

#include "base/string_util.h"

namespace omqc {
namespace {

enum class TokenKind {
  kIdent,      // identifier or number
  kQuoted,     // 'quoted constant'
  kLParen,     // (
  kRParen,     // )
  kComma,      // ,
  kPeriod,     // .
  kArrow,      // ->
  kTurnstile,  // :-
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
  int column;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        column_ = 1;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
        continue;
      }
      if (c == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      int line = line_, column = column_;
      if (c == '(') {
        out.push_back({TokenKind::kLParen, "(", line, column});
        Advance();
      } else if (c == ')') {
        out.push_back({TokenKind::kRParen, ")", line, column});
        Advance();
      } else if (c == ',') {
        out.push_back({TokenKind::kComma, ",", line, column});
        Advance();
      } else if (c == '.') {
        out.push_back({TokenKind::kPeriod, ".", line, column});
        Advance();
      } else if (c == '-' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '>') {
        out.push_back({TokenKind::kArrow, "->", line, column});
        Advance();
        Advance();
      } else if (c == ':' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '-') {
        out.push_back({TokenKind::kTurnstile, ":-", line, column});
        Advance();
        Advance();
      } else if (c == '\'') {
        Advance();
        std::string value;
        while (pos_ < text_.size() && text_[pos_] != '\'') {
          value += text_[pos_];
          Advance();
        }
        if (pos_ >= text_.size()) {
          return Status::InvalidArgument(
              StrCat("unterminated quoted constant at line ", line));
        }
        Advance();  // closing quote
        out.push_back({TokenKind::kQuoted, value, line, column});
      } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                 c == '@') {
        std::string value;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '@' ||
                text_[pos_] == '#')) {
          value += text_[pos_];
          Advance();
        }
        out.push_back({TokenKind::kIdent, value, line, column});
      } else {
        return Status::InvalidArgument(
            StrCat("unexpected character '", std::string(1, c),
                   "' at line ", line, ", column ", column));
      }
    }
    out.push_back({TokenKind::kEnd, "", line_, column_});
    return out;
  }

 private:
  void Advance() {
    ++pos_;
    ++column_;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> ParseProgram() {
    Program program;
    while (!At(TokenKind::kEnd)) {
      OMQC_RETURN_IF_ERROR(ParseStatement(program));
    }
    OMQC_RETURN_IF_ERROR(Validate(program));
    return program;
  }

  /// Parses exactly one atom (with optional trailing '.') and end of input.
  Result<Atom> ParseSingleAtom() {
    OMQC_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    if (At(TokenKind::kPeriod)) Next();
    if (!At(TokenKind::kEnd)) {
      const Status st = Error("expected end of input after atom");
      return st;
    }
    return atom;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  Token Next() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  Status Error(const std::string& message) const {
    const Token& t = Peek();
    return Status::InvalidArgument(StrCat(message, " at line ", t.line,
                                          ", column ", t.column,
                                          " (near '", t.text, "')"));
  }

  Status Expect(TokenKind kind, const char* what) {
    if (!At(kind)) return Error(StrCat("expected ", what));
    Next();
    return Status::OK();
  }

  Result<Term> ParseTerm() {
    const bool quoted = At(TokenKind::kQuoted);
    if (!quoted && !At(TokenKind::kIdent)) {
      const Status st = Error("expected a term");
      return st;
    }
    const std::string& name = Peek().text;
    if (!quoted && (std::isupper(static_cast<unsigned char>(name[0])) ||
                    name[0] == '_')) {
      return Term::Variable(Next().text);
    }
    // '@' names engine-made constants such as Freeze's "@f_X".
    if (name.rfind('@', 0) == 0) {
      const Status st =
          Error(StrCat("constant '", name, "' uses the reserved '@' prefix"));
      return st;
    }
    return Term::Constant(Next().text);
  }

  Result<Atom> ParseAtom() {
    if (!At(TokenKind::kIdent)) {
      const Status st = Error("expected a predicate name");
      return st;
    }
    std::string name = Next().text;
    std::vector<Term> args;
    if (At(TokenKind::kLParen)) {
      Next();
      if (!At(TokenKind::kRParen)) {
        while (true) {
          OMQC_ASSIGN_OR_RETURN(Term t, ParseTerm());
          args.push_back(t);
          if (At(TokenKind::kComma)) {
            Next();
            continue;
          }
          break;
        }
      }
      OMQC_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    return Atom::Make(name, std::move(args));
  }

  /// Parses "A1, ..., Ak" possibly being the keyword "true" (empty list).
  Result<std::vector<Atom>> ParseAtomList() {
    std::vector<Atom> atoms;
    if (At(TokenKind::kIdent) && Peek().text == "true" &&
        Peek(1).kind != TokenKind::kLParen) {
      Next();
      return atoms;
    }
    while (true) {
      OMQC_ASSIGN_OR_RETURN(Atom a, ParseAtom());
      atoms.push_back(std::move(a));
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    return atoms;
  }

  Status ParseStatement(Program& program) {
    // Fact tgd "-> head."
    if (At(TokenKind::kArrow)) {
      Next();
      OMQC_ASSIGN_OR_RETURN(std::vector<Atom> head, ParseAtomList());
      OMQC_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
      program.tgds.tgds.emplace_back(std::vector<Atom>{}, std::move(head));
      return Status::OK();
    }
    OMQC_ASSIGN_OR_RETURN(std::vector<Atom> first, ParseAtomList());
    if (At(TokenKind::kArrow)) {
      Next();
      OMQC_ASSIGN_OR_RETURN(std::vector<Atom> head, ParseAtomList());
      OMQC_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
      program.tgds.tgds.emplace_back(std::move(first), std::move(head));
      return Status::OK();
    }
    if (At(TokenKind::kTurnstile)) {
      if (first.size() != 1) {
        return Error("a query must have exactly one head atom");
      }
      Next();
      OMQC_ASSIGN_OR_RETURN(std::vector<Atom> body, ParseAtomList());
      OMQC_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
      NamedQuery named;
      named.name = first.front().predicate.name();
      named.query =
          ConjunctiveQuery(first.front().args, std::move(body));
      program.queries.push_back(std::move(named));
      return Status::OK();
    }
    if (At(TokenKind::kPeriod)) {
      Next();
      for (const Atom& a : first) {
        if (!a.IsFact()) {
          return Status::InvalidArgument(
              StrCat("fact statement contains a non-constant: ",
                     a.ToString()));
        }
        program.facts.Add(a);
      }
      return Status::OK();
    }
    return Error("expected '->', ':-' or '.'");
  }

  Status Validate(const Program& program) {
    OMQC_RETURN_IF_ERROR(ValidateTgdSet(program.tgds));
    for (const NamedQuery& nq : program.queries) {
      OMQC_RETURN_IF_ERROR(ValidateCQ(nq.query));
    }
    // One arity per predicate name within a program: interning treats
    // R/1 and R/2 as distinct predicates, which in a text file is almost
    // certainly a typo.
    std::map<std::string, int> arity_of;
    auto check = [&arity_of](const Atom& a) -> Status {
      auto [it, inserted] =
          arity_of.emplace(a.predicate.name(), a.predicate.arity());
      if (!inserted && it->second != a.predicate.arity()) {
        return Status::InvalidArgument(
            StrCat("predicate ", a.predicate.name(), " used with arities ",
                   it->second, " and ", a.predicate.arity()));
      }
      return Status::OK();
    };
    for (const Tgd& tgd : program.tgds.tgds) {
      for (const Atom& a : tgd.body) OMQC_RETURN_IF_ERROR(check(a));
      for (const Atom& a : tgd.head) OMQC_RETURN_IF_ERROR(check(a));
    }
    for (const NamedQuery& nq : program.queries) {
      for (const Atom& a : nq.query.body) OMQC_RETURN_IF_ERROR(check(a));
    }
    for (AtomId id = 0; id < program.facts.size(); ++id) {
      OMQC_RETURN_IF_ERROR(check(program.facts.MaterializeAtom(id)));
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<Program> ParseInternal(const std::string& text) {
  Lexer lexer(text);
  OMQC_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseProgram();
}

std::string EnsurePeriod(const std::string& text) {
  std::string_view stripped = StripWhitespace(text);
  if (!stripped.empty() && stripped.back() == '.') return std::string(text);
  return std::string(stripped) + ".";
}

}  // namespace

UnionOfCQs Program::QueriesNamed(const std::string& name) const {
  UnionOfCQs out;
  for (const NamedQuery& nq : queries) {
    if (nq.name == name) out.disjuncts.push_back(nq.query);
  }
  return out;
}

Result<Program> ParseProgram(const std::string& text) {
  return ParseInternal(text);
}

Result<Tgd> ParseTgd(const std::string& text) {
  OMQC_ASSIGN_OR_RETURN(Program program, ParseInternal(EnsurePeriod(text)));
  if (program.tgds.size() != 1 || !program.queries.empty() ||
      !program.facts.empty()) {
    return Status::InvalidArgument("expected exactly one tgd: " + text);
  }
  return program.tgds.tgds.front();
}

Result<TgdSet> ParseTgds(const std::string& text) {
  OMQC_ASSIGN_OR_RETURN(Program program, ParseInternal(text));
  if (!program.queries.empty() || !program.facts.empty()) {
    return Status::InvalidArgument("expected only tgds");
  }
  return program.tgds;
}

Result<ConjunctiveQuery> ParseQuery(const std::string& text) {
  OMQC_ASSIGN_OR_RETURN(Program program, ParseInternal(EnsurePeriod(text)));
  if (program.queries.size() != 1 || !program.tgds.tgds.empty() ||
      !program.facts.empty()) {
    return Status::InvalidArgument("expected exactly one query: " + text);
  }
  return program.queries.front().query;
}

Result<UnionOfCQs> ParseUCQ(const std::string& text) {
  OMQC_ASSIGN_OR_RETURN(Program program, ParseInternal(text));
  if (program.queries.empty() || !program.tgds.tgds.empty() ||
      !program.facts.empty()) {
    return Status::InvalidArgument("expected one or more queries");
  }
  UnionOfCQs out;
  for (const NamedQuery& nq : program.queries) {
    out.disjuncts.push_back(nq.query);
  }
  return out;
}

Result<Database> ParseDatabase(const std::string& text) {
  OMQC_ASSIGN_OR_RETURN(Program program, ParseInternal(text));
  if (!program.queries.empty() || !program.tgds.tgds.empty()) {
    return Status::InvalidArgument("expected only facts");
  }
  return program.facts;
}

std::string SerializeProgram(const Program& program) {
  std::string out;
  for (const Tgd& tgd : program.tgds.tgds) {
    out += tgd.ToString();
    out += ".\n";
  }
  for (const NamedQuery& nq : program.queries) {
    out += nq.name;
    out += "(";
    out += JoinMapped(nq.query.answer_vars, ",",
                      [](const Term& t) { return t.ToString(); });
    out += ") :- ";
    out += nq.query.body.empty()
               ? std::string("true")
               : JoinMapped(nq.query.body, ", ",
                            [](const Atom& a) { return a.ToString(); });
    out += ".\n";
  }
  for (AtomId id = 0; id < program.facts.size(); ++id) {
    out += program.facts.MaterializeAtom(id).ToString();
    out += ".\n";
  }
  return out;
}

Result<Atom> ParseAtom(const std::string& text) {
  Lexer lexer(text);
  OMQC_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseSingleAtom();
}

}  // namespace omqc
