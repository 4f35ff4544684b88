(** Lexer and recursive-descent parser for the OCTOPI DSL.

    Grammar ([#] starts a comment to end of line):
    {v
program  ::= { dims | stmt }
dims     ::= "dims" ":" { IDENT "=" INT }
stmt     ::= ref ("=" | "+=") rhs
rhs      ::= "Sum" "(" "[" { IDENT } "]" "," product ")" | product
product  ::= ref { "*" ref }
ref      ::= IDENT "[" { IDENT } "]"
    v} *)

(** Raised with a human-readable message on any lexical or syntax error. *)
exception Error of string

(** Parse a whole program; one without a statement is an {!Error}. *)
val program : string -> Ast.program
