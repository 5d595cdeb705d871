//! Offline stub of serde's `#[derive(Serialize)]`.
//!
//! Implemented directly on `proc_macro` token streams (the build
//! environment has no `syn`/`quote`), which bounds the supported shapes
//! to what the workspace's report types actually are:
//!
//! * structs with named fields (any visibility, attributes ignored);
//! * newtype structs (`struct SimTime(u64);`) — serialized transparently
//!   as the inner value;
//! * enums with only unit variants — serialized as the variant name.
//!
//! Generics, tuple structs with more than one field, and data-carrying
//! enum variants are rejected with a compile-time panic naming the
//! offending type. `#[serde(...)]` attributes are not interpreted.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (the stub's `to_value`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let ty = parse(input);
    gen_serialize(&ty).parse().expect("generated impl parses")
}

/// The shapes the stub supports.
enum Shape {
    /// Named-field struct: the field identifiers in declaration order.
    Struct(Vec<String>),
    /// One-field tuple struct.
    Newtype,
    /// Unit-variant enum: the variant identifiers.
    Enum(Vec<String>),
}

struct Ty {
    name: String,
    shape: Shape,
}

/// Splits a derive input into the type name and its shape.
fn parse(input: TokenStream) -> Ty {
    let mut iter = input.into_iter().peekable();
    // Item-level attributes and visibility before `struct` / `enum`.
    let kind = loop {
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(w)) => {
                let w = w.to_string();
                if w == "struct" || w == "enum" {
                    break w;
                }
                // `pub`, `pub(crate)`, ...: skip a following paren group.
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            other => panic!("serde_derive stub: unexpected token {other:?}"),
        }
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive stub: expected type name, got {other:?}"),
    };
    match iter.next() {
        Some(TokenTree::Group(body)) if body.delimiter() == Delimiter::Brace => {
            let shape = if kind == "struct" {
                Shape::Struct(named_fields(&name, body.stream()))
            } else {
                Shape::Enum(unit_variants(&name, body.stream()))
            };
            Ty { name, shape }
        }
        Some(TokenTree::Group(body)) if body.delimiter() == Delimiter::Parenthesis => {
            assert_eq!(kind, "struct", "serde_derive stub: bad enum body in {name}");
            let n = tuple_field_count(body.stream());
            assert!(
                n == 1,
                "serde_derive stub: {name} has {n} tuple fields; only newtypes are supported"
            );
            Ty {
                name,
                shape: Shape::Newtype,
            }
        }
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde_derive stub: {name} is generic, which is unsupported")
        }
        other => panic!("serde_derive stub: unsupported body for {name}: {other:?}"),
    }
}

/// Field identifiers of a named-field struct body, in order.
fn named_fields(ty: &str, body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        // Field attributes and visibility.
        let name = loop {
            match iter.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                }
                Some(TokenTree::Ident(w)) if w.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = iter.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            iter.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                other => panic!("serde_derive stub: unexpected token in {ty}: {other:?}"),
            }
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive stub: expected ':' after {ty}.{name}, got {other:?}"),
        }
        fields.push(name);
        // Skip the type: everything up to a comma outside angle brackets.
        // `<`/`>` are plain puncts (not groups), so track their depth.
        let mut angle = 0i32;
        for tok in iter.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
                _ => {}
            }
        }
    }
}

/// Number of fields in a tuple-struct body (trailing comma tolerated).
fn tuple_field_count(body: TokenStream) -> usize {
    let mut fields = 0usize;
    let mut pending = false;
    let mut angle = 0i32;
    for tok in body {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                fields += usize::from(pending);
                pending = false;
            }
            _ => pending = true,
        }
    }
    fields + usize::from(pending)
}

/// Variant identifiers of a unit-variant enum body.
fn unit_variants(ty: &str, body: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        match iter.next() {
            None => return variants,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
            }
            Some(TokenTree::Ident(id)) => {
                variants.push(id.to_string());
                match iter.next() {
                    None => return variants,
                    Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
                    Some(TokenTree::Punct(p)) if p.as_char() == '=' => panic!(
                        "serde_derive stub: explicit discriminants in {ty} are unsupported"
                    ),
                    Some(TokenTree::Group(_)) => panic!(
                        "serde_derive stub: {ty}::{} carries data; only unit variants are supported",
                        variants.last().unwrap()
                    ),
                    other => panic!("serde_derive stub: unexpected token in {ty}: {other:?}"),
                }
            }
            other => panic!("serde_derive stub: unexpected token in {ty}: {other:?}"),
        }
    }
}

fn gen_serialize(ty: &Ty) -> String {
    let name = &ty.name;
    let body = match &ty.shape {
        Shape::Struct(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Shape::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => \"{v}\""))
                .collect();
            format!(
                "::serde::Value::Str(::std::string::String::from(match self {{ {} }}))",
                arms.join(", ")
            )
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}
