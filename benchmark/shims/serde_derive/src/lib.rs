//! Stand-in for `serde_derive`, written against `proc_macro` alone (there is
//! no `syn` or `quote` in the sandbox).
//!
//! Supported, because the crates use it: structs with named fields, tuple
//! and unit structs, enums with unit, tuple and struct variants; container
//! attributes `tag = ".."` and `rename_all = "snake_case"`; field attributes
//! `default`, `default = "path"`, `skip`, `skip_serializing_if = "path"` and
//! `rename = ".."`. Anything else (generics, other attributes) is a compile
//! error naming what was met, never a silent difference.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize_impl)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("generated code is valid Rust")
}

#[derive(Default)]
struct Attrs {
    tag: Option<String>,
    rename_all: Option<String>,
    rename: Option<String>,
    /// `Some(None)` is a bare `default`, `Some(Some(path))` names a function.
    default: Option<Option<String>>,
    skip: bool,
    skip_serializing_if: Option<String>,
}

struct Field {
    name: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: Attrs,
    body: Body,
}

/// Reads the `serde(..)` attributes off the front of `tokens` and skips the
/// others (doc comments, `derive`, `default`).
fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while let (Some(TokenTree::Punct(hash)), Some(TokenTree::Group(group))) =
        (tokens.get(*pos), tokens.get(*pos + 1))
    {
        if hash.as_char() != '#' {
            break;
        }
        *pos += 2;
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        if let [TokenTree::Ident(name), TokenTree::Group(args)] = inner.as_slice() {
            if name.to_string() == "serde" {
                parse_serde_args(args.stream(), &mut attrs)?;
            }
        }
    }
    Ok(attrs)
}

fn parse_serde_args(args: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = args.into_iter().collect();
    for arg in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        let (key, value) = match arg {
            [] => continue,
            [TokenTree::Ident(key)] => (key.to_string(), None),
            [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                if eq.as_char() == '=' =>
            {
                let text = lit.to_string();
                let inner = text
                    .strip_prefix('"')
                    .and_then(|t| t.strip_suffix('"'))
                    .ok_or_else(|| format!("serde stand-in: `{key}` needs a string literal"))?;
                (key.to_string(), Some(inner.to_owned()))
            }
            _ => return Err("serde stand-in: unsupported #[serde(..)] syntax".into()),
        };
        match (key.as_str(), value) {
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("rename_all", Some(v)) if v == "snake_case" => attrs.rename_all = Some(v),
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("default", v) => attrs.default = Some(v),
            ("skip", None) => attrs.skip = true,
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            (other, _) => {
                return Err(format!("serde stand-in: unsupported attribute `{other}`"));
            }
        }
    }
    Ok(())
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Splits on commas that are outside `<..>`; brackets and braces are
/// already single tokens.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle = 0usize;
    let mut prev_dash = false;
    for token in stream {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle += 1,
                // The `>` of `->` closes nothing.
                '>' if !prev_dash => angle = angle.saturating_sub(1),
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        parts.last_mut().expect("starts with one part").push(token);
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

fn parse_named(stream: TokenStream) -> Result<Vec<Field>, String> {
    split_top_level(stream)
        .into_iter()
        .map(|tokens| {
            let mut pos = 0;
            let attrs = take_attrs(&tokens, &mut pos)?;
            skip_visibility(&tokens, &mut pos);
            match tokens.get(pos) {
                Some(TokenTree::Ident(name)) => Ok(Field {
                    name: name.to_string(),
                    attrs,
                }),
                _ => Err("serde stand-in: expected a field name".to_owned()),
            }
        })
        .collect()
}

fn parse_shape(token: Option<&TokenTree>) -> Result<Shape, String> {
    match token {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            parse_named(g.stream()).map(Shape::Named)
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Shape::Tuple(split_top_level(g.stream()).len()))
        }
        _ => Ok(Shape::Unit),
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let attrs = take_attrs(&tokens, &mut pos)?;
    skip_visibility(&tokens, &mut pos);
    let keyword = match tokens.get(pos) {
        Some(TokenTree::Ident(k)) => k.to_string(),
        _ => return Err("serde stand-in: expected `struct` or `enum`".into()),
    };
    let name = match tokens.get(pos + 1) {
        Some(TokenTree::Ident(n)) => n.to_string(),
        _ => return Err("serde stand-in: expected a type name".into()),
    };
    pos += 2;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde stand-in: generic type `{name}` is not supported"
        ));
    }
    let body = match keyword.as_str() {
        "struct" => Body::Struct(parse_shape(tokens.get(pos))?),
        "enum" => {
            let Some(TokenTree::Group(group)) = tokens.get(pos) else {
                return Err("serde stand-in: expected an enum body".into());
            };
            let variants = split_top_level(group.stream())
                .into_iter()
                .map(|tokens| {
                    let mut pos = 0;
                    take_attrs(&tokens, &mut pos)?;
                    match tokens.get(pos) {
                        Some(TokenTree::Ident(name)) => Ok(Variant {
                            name: name.to_string(),
                            shape: parse_shape(tokens.get(pos + 1))?,
                        }),
                        _ => Err("serde stand-in: expected a variant name".to_owned()),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            Body::Enum(variants)
        }
        other => return Err(format!("serde stand-in: cannot derive for `{other}`")),
    };
    Ok(Item { name, attrs, body })
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

impl Field {
    /// The JSON key. `rename_all` on a struct renames its fields; field
    /// names are already snake_case, so that is the identity.
    fn key(&self) -> String {
        self.attrs
            .rename
            .clone()
            .unwrap_or_else(|| self.name.clone())
    }
}

impl Item {
    fn variant_key(&self, variant: &Variant) -> String {
        match self.attrs.rename_all {
            Some(_) => snake_case(&variant.name),
            None => variant.name.clone(),
        }
    }
}

/// Statements pushing each named field of `prefix` (`self.` or a binding
/// prefix) onto the `Vec` called `fields`.
fn push_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::new();
    for field in fields.iter().filter(|f| !f.attrs.skip) {
        let value = access(&field.name);
        let push = format!(
            "fields.push(({:?}.to_string(), ::serde::Serialize::to_value({value})));",
            field.key()
        );
        match &field.attrs.skip_serializing_if {
            Some(path) => code += &format!("if !{path}({value}) {{ {push} }}"),
            None => code += &push,
        }
    }
    code
}

/// A struct-literal body reading each named field out of the slice called
/// `fields`.
fn read_named(fields: &[Field]) -> String {
    let mut code = String::new();
    for field in fields {
        let fallback = match (&field.attrs.default, field.attrs.skip) {
            (Some(Some(path)), _) => format!("{path}()"),
            (Some(None), _) | (None, true) => "::core::default::Default::default()".to_owned(),
            (None, false) => format!("::serde::Deserialize::missing({:?})?", field.key()),
        };
        if field.attrs.skip {
            code += &format!("{}: {fallback},", field.name);
        } else {
            code += &format!(
                "{}: match ::serde::find(fields, {:?}) {{ \
                     Some(v) => ::serde::Deserialize::from_value(v)?, \
                     None => {fallback}, \
                 }},",
                field.name,
                field.key()
            );
        }
    }
    code
}

fn bindings(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("f{i}")).collect()
}

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => "::serde::Value::Null".to_owned(),
        Body::Struct(Shape::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Body::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(","))
        }
        Body::Struct(Shape::Named(fields)) => format!(
            "let mut fields: Vec<(String, ::serde::Value)> = Vec::new(); {} \
             ::serde::Value::Object(fields)",
            push_named(fields, |f| format!("&self.{f}"))
        ),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| serialize_variant(item, v))
                .collect();
            format!("match self {{ {} }}", arms.join(""))
        }
    };
    format!(
        "#[allow(unused_variables)] impl ::serde::Serialize for {name} {{ \
             fn to_value(&self) -> ::serde::Value {{ {body} }} \
         }}"
    )
}

fn serialize_variant(item: &Item, variant: &Variant) -> String {
    let name = &item.name;
    let vname = &variant.name;
    let key = item.variant_key(variant);
    let tagged =
        |inner: String| format!("::serde::Value::Object(vec![({key:?}.to_string(), {inner})])");
    match (&variant.shape, &item.attrs.tag) {
        (Shape::Unit, None) => {
            format!("{name}::{vname} => ::serde::Value::String({key:?}.to_string()),")
        }
        (Shape::Unit, Some(tag)) => format!(
            "{name}::{vname} => ::serde::Value::Object(vec![({tag:?}.to_string(), \
             ::serde::Value::String({key:?}.to_string()))]),"
        ),
        (Shape::Tuple(1), None) => format!(
            "{name}::{vname}(f0) => {},",
            tagged("::serde::Serialize::to_value(f0)".to_owned())
        ),
        (Shape::Tuple(n), None) => {
            let names = bindings(*n);
            let items: Vec<String> = names
                .iter()
                .map(|b| format!("::serde::Serialize::to_value({b})"))
                .collect();
            format!(
                "{name}::{vname}({}) => {},",
                names.join(","),
                tagged(format!("::serde::Value::Array(vec![{}])", items.join(",")))
            )
        }
        (Shape::Tuple(_), Some(_)) => {
            format!("{name}::{vname}(..) => compile_error!(\"serde stand-in: tuple variant in a tagged enum\"),")
        }
        (Shape::Named(fields), tag) => {
            let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            let pushes = push_named(fields, |f| f.to_owned());
            let (head, tail) = match tag {
                Some(tag) => (
                    format!(
                        "fields.push(({tag:?}.to_string(), ::serde::Value::String({key:?}.to_string())));"
                    ),
                    "::serde::Value::Object(fields)".to_owned(),
                ),
                None => (String::new(), tagged("::serde::Value::Object(fields)".to_owned())),
            };
            format!(
                "{name}::{vname} {{ {} }} => {{ \
                     let mut fields: Vec<(String, ::serde::Value)> = Vec::new(); \
                     {head} {pushes} {tail} \
                 }},",
                names.join(",")
            )
        }
    }
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let object = format!(
        "let fields = value.as_object().ok_or_else(|| \
             ::serde::Error::expected(\"an object for {name}\", value))?;"
    );
    let body = match &item.body {
        Body::Struct(Shape::Unit) => format!("Ok({name})"),
        Body::Struct(Shape::Tuple(1)) => {
            format!("Ok({name}(::serde::Deserialize::from_value(value)?))")
        }
        Body::Struct(Shape::Tuple(n)) => format!(
            "let ({}) = ::serde::Deserialize::from_value(value)?; Ok({name}({}))",
            bindings(*n).join(",") + ",",
            bindings(*n).join(",")
        ),
        Body::Struct(Shape::Named(fields)) => {
            format!("{object} Ok({name} {{ {} }})", read_named(fields))
        }
        Body::Enum(variants) => match &item.attrs.tag {
            Some(tag) => {
                let arms: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        let key = item.variant_key(v);
                        let vname = &v.name;
                        match &v.shape {
                            Shape::Unit => format!("{key:?} => Ok({name}::{vname}),"),
                            Shape::Named(fields) => {
                                format!("{key:?} => Ok({name}::{vname} {{ {} }}),", read_named(fields))
                            }
                            Shape::Tuple(_) => format!(
                                "{key:?} => compile_error!(\"serde stand-in: tuple variant in a tagged enum\"),"
                            ),
                        }
                    })
                    .collect();
                format!(
                    "{object} \
                     let tag: String = match ::serde::find(fields, {tag:?}) {{ \
                         Some(v) => ::serde::Deserialize::from_value(v)?, \
                         None => return Err(::serde::Error::custom(\"missing tag `{tag}` for {name}\")), \
                     }}; \
                     match tag.as_str() {{ {} other => Err(::serde::Error::custom( \
                         format!(\"unknown variant `{{other}}` of {name}\"))), }}",
                    arms.join("")
                )
            }
            None => deserialize_external(item, variants),
        },
    };
    format!(
        "#[allow(unused_variables)] impl ::serde::Deserialize for {name} {{ \
             fn from_value(value: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{ \
                 {body} \
             }} \
         }}"
    )
}

/// `"Variant"` for unit variants, `{"Variant": payload}` for the rest.
fn deserialize_external(item: &Item, variants: &[Variant]) -> String {
    let name = &item.name;
    let unknown = format!(
        "other => Err(::serde::Error::custom(format!(\"unknown variant `{{other}}` of {name}\"))),"
    );
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.shape, Shape::Unit))
        .map(|v| format!("{:?} => Ok({name}::{}),", item.variant_key(v), v.name))
        .collect();
    let payload_arms: String = variants
        .iter()
        .map(|v| {
            let key = item.variant_key(v);
            let vname = &v.name;
            match &v.shape {
                Shape::Unit => format!("{key:?} => Ok({name}::{vname}),"),
                Shape::Tuple(1) => {
                    format!("{key:?} => Ok({name}::{vname}(::serde::Deserialize::from_value(payload)?)),")
                }
                Shape::Tuple(n) => format!(
                    "{key:?} => {{ let ({}) = ::serde::Deserialize::from_value(payload)?; \
                     Ok({name}::{vname}({})) }},",
                    bindings(*n).join(",") + ",",
                    bindings(*n).join(",")
                ),
                Shape::Named(fields) => format!(
                    "{key:?} => {{ \
                         let fields = payload.as_object().ok_or_else(|| \
                             ::serde::Error::expected(\"an object for {name}::{vname}\", payload))?; \
                         Ok({name}::{vname} {{ {} }}) \
                     }},",
                    read_named(fields)
                ),
            }
        })
        .collect();
    format!(
        "match value {{ \
             ::serde::Value::String(s) => match s.as_str() {{ {unit_arms} {unknown} }}, \
             ::serde::Value::Object(entries) if entries.len() == 1 => {{ \
                 let (key, payload) = &entries[0]; \
                 match key.as_str() {{ {payload_arms} {unknown} }} \
             }} \
             other => Err(::serde::Error::expected(\"a variant of {name}\", other)), \
         }}"
    )
}
