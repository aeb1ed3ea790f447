//! Offline stand-in for `serde_derive`: hand-rolled token parsing (no
//! `syn`/`quote`) generating impls of the stub `serde::Serialize` /
//! `serde::Deserialize` traits (`to_value` / `from_value`).
//!
//! Supported input shapes — exactly what this workspace uses:
//! named-field structs, single-field tuple (newtype) structs, and enums
//! whose variants are unit or struct-like. Generics are rejected loudly,
//! and the only `#[serde(...)]` attributes understood are, on a named
//! field, `#[serde(default)]` (absent fields deserialize to
//! `Default::default()`) and `#[serde(skip)]` (never serialized, always
//! deserialized to `Default::default()`); any other serde attribute panics.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field and its `#[serde(...)]` attribute, if any.
#[derive(Debug)]
struct FieldSpec {
    name: String,
    attr: Option<FieldAttr>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FieldAttr {
    /// `#[serde(default)]`
    Default,
    /// `#[serde(skip)]`
    Skip,
}

impl FieldSpec {
    fn skipped(&self) -> bool {
        self.attr == Some(FieldAttr::Skip)
    }

    /// The `name: <expr>,` initializer of the generated `from_value`.
    fn de_init(&self) -> String {
        let f = &self.name;
        match self.attr {
            None => format!("{f}: ::serde::de_field(fields, \"{f}\")?,"),
            Some(FieldAttr::Default) => {
                format!("{f}: ::serde::de_field_or_default(fields, \"{f}\")?,")
            }
            Some(FieldAttr::Skip) => format!("{f}: ::std::default::Default::default(),"),
        }
    }
}

#[derive(Debug)]
enum Shape {
    /// `struct Name { fields }`
    Struct {
        name: String,
        fields: Vec<FieldSpec>,
    },
    /// `struct Name(T);`
    Newtype { name: String },
    /// `enum Name { Unit, Data { fields }, ... }`
    Enum {
        name: String,
        variants: Vec<(String, Option<Vec<FieldSpec>>)>,
    },
}

/// The field attribute an attribute body (the `[...]` group after `#`)
/// spells, if it is a `serde(...)` one. Any payload other than `default` or
/// `skip` panics: the stub must fail loudly rather than silently diverge
/// from real serde semantics.
fn serde_field_attr(g: &proc_macro::Group) -> Option<FieldAttr> {
    if g.delimiter() != Delimiter::Bracket {
        return None;
    }
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
            if id.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            let args: Vec<TokenTree> = args.stream().into_iter().collect();
            let word = match args.as_slice() {
                [TokenTree::Ident(a)] => a.to_string(),
                _ => String::new(),
            };
            match word.as_str() {
                "default" => Some(FieldAttr::Default),
                "skip" => Some(FieldAttr::Skip),
                _ => panic!(
                    "serde_derive stub: only #[serde(default)] and #[serde(skip)] \
                     on a named field are supported"
                ),
            }
        }
        _ => None,
    }
}

/// Consumes leading attributes (`#[...]`) and visibility qualifiers.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then `[...]`.
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Extracts field names (and their `#[serde(...)]` attributes) from the
/// tokens of a braced field list.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<FieldSpec> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Consume attributes and visibility, noting `#[serde(...)]`.
        let mut attr = None;
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                        attr = attr.or(serde_field_attr(g));
                    }
                    i += 2;
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if let Some(TokenTree::Group(g)) = tokens.get(i) {
                        if g.delimiter() == Delimiter::Parenthesis {
                            i += 1; // pub(crate) etc.
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(name)) = tokens.get(i) else {
            break;
        };
        fields.push(FieldSpec {
            name: name.to_string(),
            attr,
        });
        i += 1;
        // Expect `:`, then skip the type until a comma at angle-depth 0.
        // Groups are atomic tokens, so only `<`/`>` need depth tracking.
        let mut angle: i32 = 0;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

fn parse(input: TokenStream) -> Shape {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive stub: unexpected token {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive stub: expected type name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive stub: generic type `{name}` is not supported");
        }
    }
    match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Struct {
                name,
                fields: parse_named_fields(g),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let elems = 1 + inner
                    .iter()
                    .filter(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','))
                    .count()
                    .saturating_sub(usize::from(matches!(
                        inner.last(),
                        Some(TokenTree::Punct(p)) if p.as_char() == ','
                    )));
                assert!(
                    elems == 1,
                    "serde_derive stub: only single-field tuple structs are supported ({name})"
                );
                Shape::Newtype { name }
            }
            other => panic!("serde_derive stub: unsupported struct body for {name}: {other:?}"),
        },
        "enum" => {
            let Some(TokenTree::Group(body)) = tokens.get(i) else {
                panic!("serde_derive stub: expected enum body for {name}");
            };
            let body_tokens: Vec<TokenTree> = body.stream().into_iter().collect();
            let mut variants = Vec::new();
            let mut j = 0;
            while j < body_tokens.len() {
                j = skip_attrs_and_vis(&body_tokens, j);
                let Some(TokenTree::Ident(vname)) = body_tokens.get(j) else {
                    break;
                };
                let vname = vname.to_string();
                j += 1;
                match body_tokens.get(j) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        variants.push((vname, Some(parse_named_fields(g))));
                        j += 1;
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        panic!(
                            "serde_derive stub: tuple enum variant {name}::{vname} unsupported"
                        );
                    }
                    _ => variants.push((vname, None)),
                }
                if let Some(TokenTree::Punct(p)) = body_tokens.get(j) {
                    if p.as_char() == ',' {
                        j += 1;
                    }
                }
            }
            Shape::Enum { name, variants }
        }
        other => panic!("serde_derive stub: cannot derive for `{other}`"),
    }
}

fn gen_serialize(shape: &Shape) -> String {
    match shape {
        Shape::Struct { name, fields } => {
            let entries: String = fields
                .iter()
                .filter(|f| !f.skipped())
                .map(|f| {
                    let f = &f.name;
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f})),"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Object(vec![{entries}])\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Newtype { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|(vname, fields)| match fields {
                    None => format!(
                        "{name}::{vname} => \
                         ::serde::Value::Str(::std::string::String::from(\"{vname}\")),"
                    ),
                    Some(fields) => {
                        let binders = fields
                            .iter()
                            .filter(|f| !f.skipped())
                            .map(|f| f.name.as_str())
                            .chain([".."])
                            .collect::<Vec<_>>()
                            .join(", ");
                        let entries: String = fields
                            .iter()
                            .filter(|f| !f.skipped())
                            .map(|f| {
                                let f = &f.name;
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f})),"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{vname} {{ {binders} }} => ::serde::Value::Object(vec![(\
                             ::std::string::String::from(\"{vname}\"), \
                             ::serde::Value::Object(vec![{entries}]))]),"
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

fn gen_deserialize(shape: &Shape) -> String {
    match shape {
        Shape::Struct { name, fields } => {
            let inits: String = fields.iter().map(FieldSpec::de_init).collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::DeError> {{\n\
                         let fields = v.as_object()\
                             .ok_or_else(|| ::serde::DeError::expected(\"object\"))?;\n\
                         ::std::result::Result::Ok({name} {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Newtype { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> \
                     ::std::result::Result<Self, ::serde::DeError> {{\n\
                     ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))\n\
                 }}\n\
             }}"
        ),
        Shape::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, f)| f.is_none())
                .map(|(vname, _)| {
                    format!("\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),")
                })
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|(vname, f)| f.as_ref().map(|fields| (vname, fields)))
                .map(|(vname, fields)| {
                    let inits: String = fields.iter().map(FieldSpec::de_init).collect();
                    format!(
                        "\"{vname}\" => {{\n\
                             let fields = inner.as_object()\
                                 .ok_or_else(|| ::serde::DeError::expected(\"object\"))?;\n\
                             ::std::result::Result::Ok({name}::{vname} {{ {inits} }})\n\
                         }}"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::Str(s) => match s.as_str() {{\n\
                                 {unit_arms}\n\
                                 other => ::std::result::Result::Err(\
                                     ::serde::DeError::unknown_variant(other)),\n\
                             }},\n\
                             ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                                 let (key, inner) = &entries[0];\n\
                                 match key.as_str() {{\n\
                                     {data_arms}\n\
                                     other => ::std::result::Result::Err(\
                                         ::serde::DeError::unknown_variant(other)),\n\
                                 }}\n\
                             }}\n\
                             _ => ::std::result::Result::Err(\
                                 ::serde::DeError::expected(\"enum representation\")),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse(input);
    gen_serialize(&shape)
        .parse()
        .expect("serde_derive stub: generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse(input);
    gen_deserialize(&shape)
        .parse()
        .expect("serde_derive stub: generated Deserialize impl parses")
}
