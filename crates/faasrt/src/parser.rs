//! Recursive-descent parser for CBScript.

use crate::ast::{BinOp, Expr, FnDecl, Program, Stmt, UnOp};
use crate::error::ScriptError;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses CBScript source into a [`Program`].
///
/// # Errors
///
/// [`ScriptError::Lex`] or [`ScriptError::Parse`] with the offending line.
pub fn parse(source: &str) -> Result<Program, ScriptError> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0, loop_depth: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// How many loops enclose the statement being parsed: `break` and
    /// `continue` outside every loop are rejected here, so that no engine
    /// has to give them a meaning.
    loop_depth: u32,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ScriptError> {
        if self.peek() == &kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ScriptError {
        ScriptError::Parse { line: self.line(), message }
    }

    fn program(mut self) -> Result<Program, ScriptError> {
        let mut program = Program::default();
        while self.peek() != &TokenKind::Eof {
            if self.peek() == &TokenKind::Fn {
                program.functions.push(self.fn_decl()?);
            } else {
                program.body.push(self.stmt()?);
            }
        }
        Ok(program)
    }

    fn fn_decl(&mut self) -> Result<FnDecl, ScriptError> {
        self.expect(TokenKind::Fn)?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                params.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(FnDecl { name, params, body })
    }

    fn ident(&mut self) -> Result<String, ScriptError> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(self.err("unterminated block".into()));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn loop_body(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.loop_depth += 1;
        let body = self.block();
        self.loop_depth -= 1;
        body
    }

    fn stmt(&mut self) -> Result<Stmt, ScriptError> {
        match self.peek().clone() {
            TokenKind::Let => {
                self.advance();
                let name = self.ident()?;
                self.expect(TokenKind::Eq)?;
                let value = self.expr()?;
                self.eat(&TokenKind::Semi);
                Ok(Stmt::Let(name, value))
            }
            TokenKind::If => {
                self.advance();
                let cond = self.expr()?;
                let then_branch = self.block()?;
                let else_branch = if self.eat(&TokenKind::Else) {
                    if self.peek() == &TokenKind::If {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then_branch, else_branch))
            }
            TokenKind::While => {
                self.advance();
                let cond = self.expr()?;
                let body = self.loop_body()?;
                Ok(Stmt::While(cond, body))
            }
            TokenKind::For => {
                self.advance();
                let var = self.ident()?;
                self.expect(TokenKind::In)?;
                let from = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let to = self.expr()?;
                let body = self.loop_body()?;
                Ok(Stmt::For(var, from, to, body))
            }
            TokenKind::Return => {
                self.advance();
                let value = if self.peek() == &TokenKind::Semi || self.peek() == &TokenKind::RBrace
                {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&TokenKind::Semi);
                Ok(Stmt::Return(value))
            }
            TokenKind::Break | TokenKind::Continue if self.loop_depth == 0 => {
                Err(self.err(format!("{} outside loop", self.peek())))
            }
            TokenKind::Break => {
                self.advance();
                self.eat(&TokenKind::Semi);
                Ok(Stmt::Break)
            }
            TokenKind::Continue => {
                self.advance();
                self.eat(&TokenKind::Semi);
                Ok(Stmt::Continue)
            }
            TokenKind::Ident(name) => {
                // Lookahead for assignment forms.
                let save = self.pos;
                self.advance();
                if self.eat(&TokenKind::Eq) {
                    let value = self.expr()?;
                    self.eat(&TokenKind::Semi);
                    return Ok(Stmt::Assign(name, value));
                }
                if self.peek() == &TokenKind::LBracket {
                    // Could be `a[i] = v` or expression `a[i]`.
                    self.advance();
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    if self.eat(&TokenKind::Eq) {
                        let value = self.expr()?;
                        self.eat(&TokenKind::Semi);
                        return Ok(Stmt::IndexAssign(name, index, value));
                    }
                }
                // Not an assignment: re-parse as expression.
                self.pos = save;
                let e = self.expr()?;
                self.eat(&TokenKind::Semi);
                Ok(Stmt::Expr(e))
            }
            _ => {
                let e = self.expr()?;
                self.eat(&TokenKind::Semi);
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ScriptError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let right = self.and_expr()?;
            left = Expr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.cmp_expr()?;
        while self.eat(&TokenKind::AndAnd) {
            let right = self.cmp_expr()?;
            left = Expr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.add_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::Ne,
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            self.advance();
            let right = self.add_expr()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.mul_expr()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.advance();
            let right = self.unary_expr()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ScriptError> {
        match self.peek() {
            TokenKind::Minus => {
                self.advance();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary_expr()?)))
            }
            TokenKind::Bang => {
                self.advance();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary_expr()?)))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ScriptError> {
        let mut e = self.primary_expr()?;
        while self.peek() == &TokenKind::LBracket {
            self.advance();
            let index = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            e = Expr::Index(Box::new(e), Box::new(index));
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ScriptError> {
        match self.advance() {
            TokenKind::Int(n) => Ok(Expr::Int(n)),
            TokenKind::Float(x) => Ok(Expr::Float(x)),
            TokenKind::Str(s) => Ok(Expr::Str(s.into())),
            TokenKind::True => Ok(Expr::Bool(true)),
            TokenKind::False => Ok(Expr::Bool(false)),
            TokenKind::Nil => Ok(Expr::Nil),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => {
                let mut items = Vec::new();
                if self.peek() != &TokenKind::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBracket)?;
                Ok(Expr::Array(items))
            }
            TokenKind::Ident(name) => {
                if self.peek() == &TokenKind::LParen {
                    self.advance();
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("unexpected token {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_let_and_arithmetic_with_precedence() {
        let p = parse("let x = 1 + 2 * 3;").unwrap();
        assert_eq!(
            p.body[0],
            Stmt::Let(
                "x".into(),
                Expr::Binary(
                    BinOp::Add,
                    Box::new(Expr::Int(1)),
                    Box::new(Expr::Binary(
                        BinOp::Mul,
                        Box::new(Expr::Int(2)),
                        Box::new(Expr::Int(3))
                    ))
                )
            )
        );
    }

    #[test]
    fn parses_function_declarations() {
        let p = parse("fn add(a, b) { return a + b; } let y = add(1, 2);").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].params, vec!["a", "b"]);
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse("if x < 1 { y = 1; } else if x < 2 { y = 2; } else { y = 3; }").unwrap();
        match &p.body[0] {
            Stmt::If(_, _, else_branch) => {
                assert!(matches!(else_branch[0], Stmt::If(_, _, _)));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_range_and_while() {
        let p = parse("for i in 0, 10 { s = s + i; } while s > 0 { s = s - 1; }").unwrap();
        assert!(matches!(p.body[0], Stmt::For(..)));
        assert!(matches!(p.body[1], Stmt::While(..)));
    }

    #[test]
    fn parses_array_literals_indexing_and_index_assign() {
        let p = parse("let a = [1, 2, 3]; a[0] = a[1] + a[2];").unwrap();
        assert!(matches!(p.body[1], Stmt::IndexAssign(..)));
    }

    #[test]
    fn index_expression_statement_is_not_assignment() {
        let p = parse("f(a[0]); a[0];").unwrap();
        assert!(matches!(p.body[0], Stmt::Expr(Expr::Call(..))));
        assert!(matches!(p.body[1], Stmt::Expr(Expr::Index(..))));
    }

    #[test]
    fn nested_indexing_parses() {
        let p = parse("let x = m[i][j];").unwrap();
        match &p.body[0] {
            Stmt::Let(_, Expr::Index(inner, _)) => assert!(matches!(**inner, Expr::Index(..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        match parse("let x = 1;\nlet = 5;") {
            Err(ScriptError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_block_detected() {
        assert!(matches!(parse("fn f() { let x = 1;"), Err(ScriptError::Parse { .. })));
    }

    #[test]
    fn logical_operators_short_circuit_shape() {
        let p = parse("let x = a && b || c;").unwrap();
        match &p.body[0] {
            Stmt::Let(_, Expr::Binary(BinOp::Or, left, _)) => {
                assert!(matches!(**left, Expr::Binary(BinOp::And, ..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn break_and_continue_are_rejected_outside_every_loop() {
        for (src, line, word) in [
            ("let x = 1; break; result(x);", 1, "break"),
            ("fn f() { continue; return 2; } result(f());", 1, "continue"),
            ("if true {\n  break;\n}", 2, "break"),
            ("while true { fn_call(); }\nfn g() { if true { continue; } }", 2, "continue"),
        ] {
            let message = format!("{word} outside loop");
            assert_eq!(parse(src), Err(ScriptError::Parse { line, message }), "{src}");
        }
        for src in [
            "while true { if true { break; } else { continue; } }",
            "for i in 0, 3 { while false { continue; } break; }",
        ] {
            assert!(parse(src).is_ok(), "{src}");
        }
    }
}
